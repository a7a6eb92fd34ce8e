"""ski-normalize: linear runs over plain and marker-wrapped SKI terms.

Plain queries (7-14 atoms) are parsed, stepped once with ``core.step``,
normalized with the ``first`` or seeded ``random`` strategy, head-reduced
with ``ski.whnf_run`` and fuelled with ``ski.gas_trace``.  A quarter of the
queries arrive as ``R^n``-wrapped text of the gas calculus and are run with
the ``first`` strategy of that presentation.  Every run visits each state
once and the plain calculus has an empty congruence, so this workload is
the one an ACU or canonical-form cache must leave unchanged.
"""

from __future__ import annotations

import random

from skirho import core, ski, syntax
from skirho.ski import ski_presentation

from . import reference as ref
from .inputs import node_count, ski_text, ski_tree

FUEL = 60        # steps for the first/random/whnf runs
SIZE_CAP = 400   # queries whose reference runs grow past this are redrawn


class SkiNormalize:
    name = "ski-normalize"
    rss_of_children = False
    warmup_queries = 3

    def prepare(self) -> None:
        self.plain = ski_presentation("plain")
        self.gas = ski_presentation("gas")

    def make(self, rng: random.Random, i: int) -> dict:
        """Query i: 7 + i % 8 atoms; every fourth is wrapped, and of the
        rest, those with i % 10 in (1, 4, 7) use the random strategy."""
        wrapped = i % 4 == 3
        strategy = "random" if not wrapped and i % 10 in (1, 4, 7) else "first"
        while True:
            t = ski_tree(rng, 7 + i % 8)
            seed = rng.randrange(1 << 30)
            try:
                first, first_status = ref.first_run(t, FUEL, SIZE_CAP)
                head = ref.head_run(t, FUEL, SIZE_CAP)
                norm = (ref.random_run(t, FUEL, seed, SIZE_CAP) if strategy == "random"
                        else (first, first_status))
            except ref.TooLarge:
                continue
            break
        m = len(head) - 1 if ref.head_step(head[-1]) is None else None
        markers = rng.choice((m, m, m + 1, m + 3, rng.randint(0, m))) if m is not None \
            else rng.randint(1, 8)
        q = {"term": t, "first": first, "first_status": first_status, "norm": norm,
             "head": head, "head_steps": m, "markers": markers}
        if wrapped:
            q.update(kind="wrapped", text=ski_text(ski.wrap_markers(t, markers)))
        else:
            q.update(kind="plain", text=ski_text(t), strategy=strategy, seed=seed)
        return q

    def describe(self, q: dict) -> str:
        return f"{q['kind']} {q['text']}"

    def run(self, q: dict, tr) -> tuple[tuple, dict]:
        if q["kind"] == "wrapped":
            t = tr.call("syntax.parse", syntax.parse_ski, q["text"], "gas")
            tr.count("syntax.nodes_parsed", node_count(t))
            gas = tr.call("core.reduce_first", core.reduce, self.gas, t, "first", q["markers"])
            tr.count("core.reduce_first_steps", len(gas.steps))
            shown = tr.call("syntax.print", _print_all, [gas.final])
            return (gas.status, len(gas.steps), *shown), {"parsed": t, "gas": gas}
        t = tr.call("syntax.parse", syntax.parse_ski, q["text"])
        tr.count("syntax.nodes_parsed", node_count(t))
        succs = tr.call("core.step", core.step, self.plain, t)
        tr.count("core.step_successors", len(succs))
        strategy = q["strategy"]
        norm = tr.call(f"core.reduce_{strategy}", core.reduce, self.plain, t, strategy, FUEL,
                       seed=q["seed"])
        if strategy == "first":
            tr.count("core.reduce_first_steps", len(norm.steps))
        whnf = tr.call("ski.whnf_run", ski.whnf_run, t, FUEL)
        gas = tr.call("ski.gas_trace", ski.gas_trace, t, q["markers"])
        tr.count("ski.marker_steps", len(gas.steps))
        shown = tr.call("syntax.print", _print_all,
                        [norm.final, whnf.final, gas.final] + list(succs))
        out = (norm.status, len(norm.steps), whnf.status, len(whnf.steps),
               gas.status, len(gas.steps), *shown[:3], *sorted(shown[3:]))
        return out, {"parsed": t, "succs": succs, "norm": norm, "whnf": whnf, "gas": gas}

    def check(self, q: dict, out: tuple, raw: dict, tr) -> tuple[list[str], list]:
        errs = []
        t = q["term"]
        if raw["parsed"] != (t if q["kind"] == "plain" else ski.wrap_markers(t, q["markers"])):
            return ["parse differs from the generated term"], []
        errs += _check_gas(q, raw["gas"])
        if q["kind"] == "wrapped":
            expect = (raw["gas"].status, len(raw["gas"].steps), ski_text(raw["gas"].final))
            return errs + (["printed output differs"] if out != expect else []), []
        want = tr.call("ref.naive_step", ref.naive_ski_step, t)
        if raw["succs"] != want:
            errs.append("core.step differs from the naive stepper")
        norm = raw["norm"]
        terms = [norm.initial] + [u for _, u in norm.steps]
        if (terms, norm.status) != q["norm"]:
            errs.append(f"{q['strategy']} run differs from the reference")
        if q["strategy"] == "random":
            if any(b not in ref.naive_ski_step(a) for a, b in zip(terms, terms[1:])):
                errs.append("random run takes a step the naive stepper does not")
            if (norm.status == "normal_form" and q["first_status"] == "normal_form"
                    and terms[-1] != q["first"][-1]):
                errs.append("random run reaches another normal form")
        whnf = raw["whnf"]
        m = q["head_steps"]
        if m is None:
            if whnf.status != "fuel_exhausted" or len(whnf.steps) != FUEL:
                errs.append("whnf run stops although head reduction diverges")
        elif (whnf.status != "normal_form" or len(whnf.steps) != m
              or ski.strip_marker(whnf.final) != q["head"][-1]
              or ski.whnf_oracle(t, FUEL) != q["head"][-1]):
            errs.append("whnf run differs from head reduction")
        expect = (norm.status, len(norm.steps), whnf.status, len(whnf.steps),
                  raw["gas"].status, len(raw["gas"].steps),
                  ski_text(terms[-1]), ski_text(whnf.final), ski_text(raw["gas"].final),
                  *sorted(ski_text(u) for u in want))
        if out != expect:
            errs.append("printed output differs")
        return errs, []


def _print_all(terms) -> list[str]:
    return [syntax.print_ski(u) for u in terms]


def _check_gas(q: dict, trace) -> list[str]:
    """A gas run takes min(n, m) head steps and conserves markers plus steps."""
    n, head = q["markers"], q["head"]
    taken = min(n, len(head) - 1) if q["head_steps"] is not None else n
    if len(trace.steps) != taken or trace.status != "normal_form":
        return [f"gas run takes {len(trace.steps)} steps, expected {taken}"]
    if any(ref.marker_count(u) + i != n for i, (_, u) in enumerate(trace.steps, start=1)):
        return ["gas run does not conserve markers plus steps"]
    if trace.final != ref.gas_final(head[taken], n - taken):
        return ["gas run ends at the wrong term"]
    return []
