"""bisim-faithfulness: bounded bisimulation on both sides of the translation.

A query is a pair of processes: one of the 20 hand-labelled pairs of
acceptance criterion 7 at depth 4, or a seeded random pair at depth 3.  The
benchmark calls ``bisim.bounded_bisim`` itself, once on the processes and
once on their context-wrapped images, exactly as ``faithfulness_check``
does, and also canonicalizes and steps each process with ``rho``.

Random pairs have no label.  A verdict that differs across the translation
is a known defect of the translation (the combinator side evaluates
``*&P`` and counts S/K/I steps against the depth; the process side does
neither); such pairs are counted as ``bisim.disagreements`` and listed, not
dropped.
"""

from __future__ import annotations

import random

from skirho import bisim, comb, rho, syntax

from .inputs import pair_component, rho_text, to_process

FIXED_DEPTH = 4
RANDOM_DEPTH = 3

# Acceptance criterion 7: pairs 1-12 are bisimilar, 13-20 are distinguished.
FIXED_PAIRS = (
    ("0", "0"),
    ("0 | 0", "0"),
    ("&0!0", "&0!0 | 0"),
    ("&0!0 | for(y <- &0)0", "for(y <- &0)0 | &0!0"),
    ("for(y <- &0)*y", "for(z <- &0)*z"),
    ("for(y <- &(0|0))0", "for(y <- &0)0"),
    ("&*&0!0", "&0!0"),
    ("&0!(0 | 0)", "&0!0"),
    ("(&0!0 | 0) | *&0", "&0!0 | (*&0 | 0)"),
    ("for(y <- &0)(*y | 0)", "for(w <- &0)*w"),
    ("*&0", "0"),
    ("*&(0|0) | 0", "*&0"),
    ("&0!0", "0"),
    ("0", "&0!0"),
    ("&0!0", "&(&0!0)!0"),
    ("&0!0 | &(&0!0)!0", "&0!0"),
    ("for(y <- &0)0 | &0!0", "0"),
    ("for(y <- &0)0 | &0!0", "for(y <- &0)0"),
    ("&0!(&(&0!0)!0)", "0"),
    ("&0!0 | &0!0", "for(y <- &0)0"),
)
BISIMILAR_LABELS = 12
SHAPE_CYCLE = 240  # random pairs repeat their shapes with this period of query indices


class BisimFaithfulness:
    name = "bisim-faithfulness"
    rss_of_children = False
    warmup_queries = 3

    def prepare(self) -> None:
        self.fixed = [(syntax.parse_rho(a), syntax.parse_rho(b)) for a, b in FIXED_PAIRS]

    def make(self, rng: random.Random, i: int) -> dict:
        """Every fourth query is a fixed pair, in turn; the rest are random.

        A random pair's shape (component counts, kinds, channels, body
        depths, near miss or not) depends on ``i % SHAPE_CYCLE`` alone, so
        every cycle holds the same shapes and the seed picks bodies and names:
        the few shapes that take a second would otherwise come up a
        different number of times in each run."""
        if i % 4 == 0:
            idx = (i // 4) % len(FIXED_PAIRS)
            left, right = FIXED_PAIRS[idx]
            return {"kind": "fixed", "index": idx, "left": left, "right": right,
                    "depth": FIXED_DEPTH, "label": idx < BISIMILAR_LABELS}
        shape = random.Random(f"{self.name}/shape:{i % SHAPE_CYCLE}")
        sides = []
        for _ in range(2):
            group = [pair_component(rng, shape) for _ in range(shape.randint(1, 3))]
            sides.append(("par", group) if len(group) > 1 else group[0])
        if shape.random() < 0.5:  # a near miss: the right side shares all but one part
            shared = sides[0][1][:-1] if sides[0][0] == "par" else []
            sides[1] = ("par", shared + [pair_component(rng, shape)]) if shared else sides[1]
        return {"kind": "random", "left": rho_text(sides[0]), "right": rho_text(sides[1]),
                "expect": (to_process(sides[0]), to_process(sides[1])),
                "depth": RANDOM_DEPTH}

    def describe(self, q: dict) -> str:
        return f"{q['kind']} {q['left']!r} vs {q['right']!r} at depth {q['depth']}"

    def run(self, q: dict, tr):
        left = tr.call("syntax.parse", syntax.parse_rho, q["left"])
        right = tr.call("syntax.parse", syntax.parse_rho, q["right"])
        sides = []
        for p in (left, right):
            canon = tr.call("rho.canon_process", rho.canon_process, p)
            succs = tr.call("rho.comm_step", rho.comm_step, p)
            tr.count("rho.comm_successors", len(succs))
            sides.append((canon, succs))
        names = bisim.names_occurring(left)
        names += [n for n in bisim.names_occurring(right) if n not in names]
        depth = q["depth"]
        rho_verdict = comb_verdict = None
        try:
            rho_verdict = tr.call("bisim.rho_side", bisim.bounded_bisim, left, right, names, depth)
            comb_names = [
                comb.ap(comb.atom(comb.AMP_DECL), tr.call("comb.interp", comb.interp, n.process))
                if isinstance(rho.resolve_name(n), rho.Quote) else comb.name_token(n.ident)
                for n in (rho.canon_name(m) for m in names)]
            wrapped = [comb.wrap_context(tr.call("comb.interp", comb.interp, p))
                       for p in (left, right)]
            comb_verdict = tr.call("bisim.comb_side", bisim.bounded_bisim, *wrapped,
                                   comb_names, depth)
        except bisim.BudgetExhausted:
            pass
        shown = tr.call("syntax.print", _print_processes, [canon for canon, _ in sides])
        verdicts = tuple(_verdict_text(v) for v in (rho_verdict, comb_verdict))
        out = (*verdicts, *shown, *(len(succs) for _, succs in sides))
        return out, {"parsed": (left, right), "sides": sides,
                     "rho": rho_verdict, "comb": comb_verdict}

    def check(self, q: dict, out: tuple, raw: dict, tr) -> tuple[list[str], list[tuple]]:
        expect = self.fixed[q["index"]] if q["kind"] == "fixed" else q["expect"]
        if raw["parsed"] != expect:
            return ["parse differs from the generated input"], []
        errs, findings = [], []
        for text, (canon, _) in zip(out[2:4], raw["sides"]):
            if syntax.parse_rho(text) != canon:
                errs.append("printed canonical form does not parse to itself")
        rho_verdict, comb_verdict = raw["rho"], raw["comb"]
        conclusive = rho_verdict is not None and comb_verdict is not None
        if conclusive:
            tr.count("bisim.verdicts", 2)
        if q["kind"] == "fixed":
            if not conclusive:
                errs.append("state budget exhausted on a labelled pair")
            else:
                for side, v in (("process", rho_verdict), ("combinator", comb_verdict)):
                    if v.bisimilar != q["label"]:
                        errs.append(f"{side} verdict contradicts the label of pair {q['index'] + 1}")
        elif not conclusive:
            findings.append(("bisim.inconclusive", "state budget exhausted"))
        elif rho_verdict.bisimilar != comb_verdict.bisimilar:
            findings.append(("bisim.disagreements",
                            f"processes {out[0]}, combinators {out[1]}"))
        return errs, findings


def _verdict_text(v) -> str:
    if v is None:
        return "inconclusive"
    return "bisimilar" if v.bisimilar else "distinguished"


def _print_processes(ps) -> list[str]:
    return [syntax.print_rho(p) for p in ps]
