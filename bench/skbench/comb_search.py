"""comb-search: breadth-first target searches over the combinator image.

Two query shapes, over parallel groups:

* ``comm`` (the shape of acceptance criterion 8): a group of 2-12
  processes is translated, sorted and translated back; its communication
  reducts are matched by the ``xi`` successors of the context-wrapped
  image, and one of them is reached from its ``xi`` successor with the
  non-communication rules, strategy ``all``.
* ``admin`` (the shape of criterion 5): the image of a group of 2-6
  processes, with S/K/I detours, is sorted and translated back, and the
  image of that process is reached from it, strategy ``all``.

A breadth-first search revisits states of the ``|``/``0`` ACU group and
canonicalizes every successor, which is what makes this workload the one
that compiled presentations and incremental canonicalization should move.
"""

from __future__ import annotations

import random

from skirho import comb, core, rho, syntax
from skirho.comb import NON_COMM_RULES, W

from .inputs import comb_group_image, comb_text, comm_group, node_count, rho_text, to_process

SEARCH_FUEL = 60
SHAPE_CYCLE = 88  # queries repeat their shapes with this period of query indices


class CombSearch:
    name = "comb-search"
    rss_of_children = False
    warmup_queries = 3

    def prepare(self) -> None:
        self.pres = comb.comb_presentation()

    def make(self, rng: random.Random, i: int) -> dict:
        """Query i has 2 + i % 11 components; comm and admin alternate, and
        every other comm group holds a dereference.

        The rest of the query (the processes, the number, places and
        kinds of detours) depends on ``i % SHAPE_CYCLE`` alone, and the
        seed picks the channels, the messages communicated, dereferenced
        names and detour junk: a search's cost varies tenfold within one
        size, and drawn freely the costliest queries came up a different
        number of times in each run."""
        size = 2 + i % 11
        shape = random.Random(f"{self.name}/shape:{i % SHAPE_CYCLE}")
        if i % 2 == 0:
            group = comm_group(rng, size, deref=i % 4 == 0, shape=shape)
            ast = ("par", group)
            return {"kind": "comm", "text": rho_text(ast), "expect": to_process(ast),
                    "deref_message": any(c[0] == "out" and c[2][0] == "deref" for c in group)}
        term = comb_group_image(rng, min(size, 6), shape.randint(1, 3), shape)
        return {"kind": "admin", "text": comb_text(term), "expect": term}

    def describe(self, q: dict) -> str:
        return f"{q['kind']} {q['text']}"

    def run(self, q: dict, tr):
        return (self._comm if q["kind"] == "comm" else self._admin)(q["text"], tr)

    def _search(self, tr, start, goal):
        trace = tr.call("core.reduce_all", core.reduce, self.pres, start, "all", SEARCH_FUEL,
                        rules=NON_COMM_RULES, target=goal)
        tr.count("core.reduce_all_trace_steps", len(trace.steps))
        return trace

    def _interp(self, tr, p):
        image = tr.call("comb.interp", comb.interp, p)
        tr.count("comb.image_nodes", node_count(image))
        return image

    def _comm(self, text: str, tr):
        p = tr.call("syntax.parse", syntax.parse_rho, text)
        canon = tr.call("rho.canon_process", rho.canon_process, p)
        image = self._interp(tr, p)
        sort = tr.call("comb.sort_infer", comb.sort_infer, image)
        back = tr.call("comb.backinterp", comb.backinterp, image)
        succs = tr.call("rho.comm_step", rho.comm_step, p)
        tr.count("rho.comm_successors", len(succs))
        wrapped = tr.call("core.canonicalize", core.canonicalize, self.pres,
                          comb.wrap_context(image))
        xis = tr.call("core.step", core.step, self.pres, wrapped, rules=("xi",))
        tr.count("core.step_successors", len(xis))
        matched = {}
        for x in xis:
            inner = comb.unwrap_context(x)
            got = None if inner is None else tr.call("comb.backinterp", comb.backinterp, inner)
            matched.setdefault(got, []).append(x)
        reducts = list(succs)
        shown = tr.call("syntax.print", _print_processes, [back] + reducts)
        target_text, target = min(zip(shown[1:], reducts), key=lambda pair: pair[0])
        goal = tr.call("core.canonicalize", core.canonicalize, self.pres,
                       comb.wrap_context(self._interp(tr, target)))
        starts = sorted(matched.get(target, []), key=comb_text)
        trace = self._search(tr, starts[0], goal) if starts else None
        image_text = tr.call("syntax.print", syntax.print_comb, image)
        out = (image_text, repr(sort), shown[0], *sorted(shown[1:]), target_text,
               trace.status if trace is not None else "unmatched",
               len(trace.steps) if trace is not None else -1)
        return out, {"parsed": p, "canon": canon, "image": image, "sort": sort, "back": back,
                     "succs": succs, "matched": matched, "trace": trace}

    def _admin(self, text: str, tr):
        c = tr.call("syntax.parse", syntax.parse_comb, text)
        sort = tr.call("comb.sort_infer", comb.sort_infer, c)
        back = tr.call("comb.backinterp", comb.backinterp, c)
        target = self._interp(tr, back)
        trace = self._search(tr, c, target)
        again = self._interp(tr, tr.call("comb.backinterp", comb.backinterp, target))
        shown = tr.call("syntax.print", _print_processes, [back])
        target_text = tr.call("syntax.print", syntax.print_comb, target)
        out = (repr(sort), shown[0], target_text, trace.status, len(trace.steps))
        return out, {"parsed": c, "sort": sort, "back": back, "target": target,
                     "trace": trace, "again": again}

    def check(self, q: dict, out: tuple, raw: dict, tr) -> tuple[list[str], list[tuple]]:
        if raw["parsed"] != q["expect"]:
            return ["parse differs from the generated input"], []
        errs, findings = [], []
        if raw["sort"] != W:
            errs.append(f"sort is {raw['sort']!r}, expected W")
        if syntax.parse_rho(out[1 if q["kind"] == "admin" else 2]) != raw["back"]:
            errs.append("printed back-translation does not parse to itself")
        if raw["trace"] is None or raw["trace"].status != "target_reached":
            if q.get("deref_message"):
                # Sending *&P makes the received name &*&P, which the process
                # calculus identifies with &P and the combinators do not.
                findings.append(("comb.unreached_targets",
                                "target unreachable after a quote-of-dereference message"))
            else:
                errs.append("target not reached")
        if q["kind"] == "admin":
            if raw["again"] != raw["target"]:
                errs.append("translating the target back and forth moves it")
            if out[2] != comb_text(raw["target"]):
                errs.append("printed target differs")
            return errs, findings
        if raw["back"] != raw["canon"]:
            errs.append("round trip is not exact")
        missing = raw["succs"] - set(raw["matched"])
        if missing:
            errs.append(f"{len(missing)} communication reducts have no xi successor")
        if out[0] != comb_text(raw["image"]):
            errs.append("printed image differs")
        if any(syntax.parse_rho(s) not in raw["succs"] for s in out[3:-3]):
            errs.append("printed reducts do not parse to reducts")
        return errs, findings


def _print_processes(ps) -> list[str]:
    return [syntax.print_rho(p) for p in ps]
