"""Observation relations and the bounded bisimilarity checker."""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from skirho import bisim, comb, core, rho
from skirho.bisim import (
    BudgetExhausted,
    barbs,
    bounded_bisim,
    faithfulness_check,
    names_occurring,
    weak_barbs,
)
from skirho.comb import NON_COMM_RULES, canon as comb_canon, interp, wrap_context
from skirho.core import step
from skirho.rho import ZERO, Input, Output, Par, Quote, Var, par_of
from skirho.syntax import parse_comb, parse_rho, parse_rho_name

from gen import random_comm_candidate, random_process

N0 = Quote(ZERO)


def out0():
    return Output(N0, ZERO)


def relay():
    return Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())


# ---------------------------------------------------------------------------
# barbs


def test_barbs_output():
    assert barbs(out0(), [N0]) == {N0}


def test_barbs_stopped():
    assert barbs(ZERO, [N0]) == frozenset()


def test_barbs_through_par_and_name_equivalence():
    p = Par(ZERO, Output(Quote(Par(ZERO, ZERO)), ZERO))
    assert barbs(p, [N0]) == {N0}


def test_barbs_monotone_in_name_set():
    other = Quote(out0())
    p = Par(out0(), Output(other, ZERO))
    assert barbs(p, [N0]) <= barbs(p, [N0, other])


def test_barbs_invariant_under_canonicalization():
    rng = random.Random(40)
    for _ in range(80):
        p = random_comm_candidate(rng, 3)
        names = names_occurring(p)
        assert barbs(p, names) == barbs(rho.canon_process(p), names)


def test_names_occurring_leaves_out_bound_identifiers():
    p = parse_rho("for(y <- &0)(y!0 | for(z <- y)*z) | &0!0")
    assert names_occurring(p) == [parse_rho_name("&0")]
    # inside a quote a fresh scope begins; an identifier no input binds stays
    p = parse_rho("for(y <- &(for(z <- &0)z!0))*y")
    assert names_occurring(p) == [rho.canon_name(parse_rho_name("&(for(z <- &0)z!0)")), N0]
    assert names_occurring(Par(Output(Var("x"), ZERO), Input(Var("x"), "x", out0()))) == [Var("x"), N0]


def test_names_occurring_merges_its_agents_in_first_seen_order():
    rng = random.Random(61)
    for _ in range(60):
        p, q = random_comm_candidate(rng, 3), random_comm_candidate(rng, 3)
        for a, b in ((p, q), (wrap_context(interp(p)), wrap_context(interp(q)))):
            merged = names_occurring(a)
            merged += [n for n in names_occurring(b) if n not in merged]
            assert names_occurring(a, b) == merged
            assert names_occurring(a, a) == names_occurring(a)


def test_bound_identifiers_never_decide_a_verdict():
    rng = random.Random(58)
    bound = [Var(f"u{i}") for i in range(3)]  # every binder the generator writes
    for _ in range(40):
        p, q = random_comm_candidate(rng, 3), random_comm_candidate(rng, 3)
        names = names_occurring(p) + [n for n in names_occurring(q) if n not in names_occurring(p)]
        assert not any(isinstance(n, Var) for n in names)
        for a, b in ((p, q), (p, Par(p, ZERO)), (q, q)):
            with_bound = faithfulness_check(a, b, names + bound, 3)
            report = faithfulness_check(a, b, names, 3)
            assert (report.calculus.bisimilar, report.combinator.bisimilar) == (
                with_bound.calculus.bisimilar, with_bound.combinator.bisimilar)


def test_barbs_combinator_side():
    t = comb.aps(comb.atom(comb.PAR_DECL), comb.atom(comb.ZERO_DECL),
                 interp(out0()))
    comb_name = comb.ap(comb.atom(comb.AMP_DECL), comb.atom(comb.ZERO_DECL))
    assert barbs(t, [comb_name]) == {comb_canon(comb_name)}


# ---------------------------------------------------------------------------
# weak barbs


def test_weak_barbs_after_comm():
    wb = weak_barbs(relay(), [N0], 2)
    assert wb.names == {N0}
    assert not wb.truncated


def test_weak_barbs_stopped():
    for bound in (0, 1, 3):
        assert weak_barbs(ZERO, [N0], bound).names == frozenset()


def test_weak_barbs_zero_bound_immediate():
    wb = weak_barbs(out0(), [N0], 0)
    assert wb.names == {N0}


def test_weak_barbs_truncation_reported():
    # at bound 0 the communication has not happened yet and more states exist
    p = Par(Input(N0, "y", out0()), out0())
    wb = weak_barbs(p, [N0], 0)
    assert wb.truncated


# ---------------------------------------------------------------------------
# bounded bisimilarity


def test_bisim_congruent_agents():
    p = relay()
    verdict = bounded_bisim(p, Par(p, ZERO), [N0], 4)
    assert verdict.bisimilar


def test_bisim_distinguishes_barb():
    verdict = bounded_bisim(out0(), ZERO, [N0], 1)
    assert not verdict.bisimilar
    w = verdict.witness
    assert w.kind == "barb"
    # the witness replays: the barb is immediate on one side, absent weakly
    assert w.name in barbs(w.agent, [N0])
    assert w.name not in weak_barbs(w.partner, [N0], w.bound).names


def test_bisim_distinguishes_weak_barb():
    p = Par(Input(N0, "y", ZERO), out0())
    verdict = bounded_bisim(p, ZERO, [N0], 2)
    assert not verdict.bisimilar


def test_bisim_symmetric():
    rng = random.Random(41)
    for _ in range(25):
        a = random_comm_candidate(rng, 2)
        b = random_process(rng, 2)
        names = names_occurring(a) + [n for n in names_occurring(b)
                                      if n not in names_occurring(a)]
        va = bounded_bisim(a, b, names, 2)
        vb = bounded_bisim(b, a, names, 2)
        assert va.bisimilar == vb.bisimilar


def test_bisim_monotone_in_depth():
    rng = random.Random(42)
    for _ in range(20):
        a = random_comm_candidate(rng, 2)
        b = random_comm_candidate(rng, 2)
        names = names_occurring(a) + [n for n in names_occurring(b)
                                      if n not in names_occurring(a)]
        verdicts = [bounded_bisim(a, b, names, d).bisimilar for d in (0, 1, 2, 3)]
        for shallower, deeper in zip(verdicts, verdicts[1:]):
            if deeper:
                assert shallower


def test_bisim_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(bisim, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        bounded_bisim(relay(), relay(), [N0], 3)


def test_bisim_state_budget_is_inconclusive(monkeypatch):
    monkeypatch.setattr(bisim, "explore", lambda *args: core.explore(*args, state_budget=1))
    with pytest.raises(BudgetExhausted):
        bounded_bisim(relay(), relay(), [N0], 3)


def test_pair_budget_overrun_is_a_state_budget_overrun(monkeypatch):
    assert BudgetExhausted is core.StateBudgetExhausted
    monkeypatch.setattr(bisim, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(core.FuelExhausted, match="^pair budget 1 exhausted$"):
        bounded_bisim(relay(), relay(), [N0], 3)


@pytest.mark.parametrize("comb_side", [False, True])
def test_one_check_explores_each_agent_and_bound_once(monkeypatch, comb_side):
    searches = Counter()

    def counted(start, successors, fuel, *rest):
        searches[start, fuel] += 1
        return core.explore(start, successors, fuel, *rest)

    monkeypatch.setattr(bisim, "explore", counted)
    p = parse_rho("for(y <- &0)(y!0) | &0!(&0!0)")
    q = Par(p, ZERO)
    names = bisim.names_occurring(p)
    if comb_side:
        p, q = wrap_context(interp(p)), wrap_context(interp(q))
        names = [comb.interp_name(n) for n in names]
    assert bounded_bisim(p, q, names, 3).bisimilar
    assert len(searches) > 1 and max(searches.values()) == 1


def test_faithfulness_budget_on_either_side_is_inconclusive(monkeypatch):
    p = parse_rho("for(y <- &0)(y!0) | &0!(&0!0)")
    q = Par(p, ZERO)
    names = bisim.names_occurring(p)
    monkeypatch.setattr(bisim, "DEFAULT_PAIR_BUDGET", 1)
    report = faithfulness_check(p, q, names, 3)
    assert (report.agree, report.inconclusive) == (False, True)
    assert report.calculus is None and report.combinator is None
    monkeypatch.setattr(bisim, "DEFAULT_PAIR_BUDGET", 4)
    report = faithfulness_check(p, q, names, 3)
    assert (report.agree, report.inconclusive) == (False, True)
    assert report.calculus.bisimilar and report.combinator is None
    monkeypatch.undo()
    assert faithfulness_check(p, q, names, 3).agree


def test_negative_bounds_rejected():
    with pytest.raises(ValueError):
        weak_barbs(out0(), [N0], -1)
    with pytest.raises(ValueError):
        bounded_bisim(out0(), ZERO, [N0], -1)


def test_witness_describe_reparses():
    n1 = Quote(out0())
    pairs = [
        (out0(), ZERO, [N0]),
        (Par(Input(N0, "y", Output(n1, ZERO)), out0()), Par(Input(N0, "y", ZERO), out0()), [n1]),
    ]
    kinds = set()
    for p, q, names in pairs:
        report = faithfulness_check(p, q, names, 2)
        for verdict in (report.calculus, report.combinator):
            w = verdict.witness
            while w is not None:
                on_comb = isinstance(w.agent, core.Term)
                text = w.describe()
                if w.kind == "barb":
                    shown = text.split(" shows barb ", 1)[1].split(" that the other side", 1)[0]
                    if on_comb:
                        assert comb_canon(parse_comb(shown)) == comb_canon(w.name)
                    else:
                        assert rho.canon_name(parse_rho_name(shown)) == rho.canon_name(w.name)
                else:
                    shown = text.split(" steps to ", 1)[1].split("; no reply", 1)[0]
                    if on_comb:
                        assert comb_canon(parse_comb(shown)) == comb_canon(w.successor)
                    else:
                        want = rho.canon_process(w.successor)
                        assert rho.canon_process(parse_rho(shown)) == want
                kinds.add((on_comb, w.kind))
                w = w.inner
    assert kinds == {(False, "barb"), (False, "move"), (True, "barb"), (True, "move")}


def test_each_state_is_expanded_once_per_check(monkeypatch):
    expanded = Counter()
    for name in ("rho", "rho-comb"):
        calc = bisim.CALCULI[name]

        def edges(state, calc=calc, name=name):
            expanded[name, state] += 1
            return calc.edges(state)

        monkeypatch.setitem(bisim.CALCULI, name, calc._replace(edges=edges))
    left = Par(relay(), Input(N0, "z", out0()))
    right = Par(out0(), Input(N0, "z", out0()))
    report = faithfulness_check(left, right, [N0], 4)
    assert not report.inconclusive
    assert {name for name, _ in expanded} == {"rho", "rho-comb"}
    assert max(expanded.values()) == 1
    expanded.clear()
    weak_barbs(wrap_context(interp(left)), [comb.interp_name(N0)], 4)
    assert expanded and max(expanded.values()) == 1


def test_bisim_rejects_mixed_calculi():
    with pytest.raises(TypeError):
        bounded_bisim(ZERO, interp(ZERO), [N0], 1)


# ---------------------------------------------------------------------------
# faithfulness harness


def test_faithfulness_trivial_pair():
    report = faithfulness_check(ZERO, ZERO, [N0], 4)
    assert report.agree
    assert report.calculus.bisimilar and report.combinator.bisimilar


def test_faithfulness_barb_difference():
    report = faithfulness_check(out0(), ZERO, [N0], 4)
    assert report.agree
    assert not report.calculus.bisimilar
    assert not report.combinator.bisimilar


def test_faithfulness_congruent_pair():
    p = Par(Input(N0, "y", ZERO), out0())
    q = par_of([ZERO, Input(N0, "y", ZERO), out0()])
    report = faithfulness_check(p, q, [N0], 4)
    assert report.agree
    assert report.calculus.bisimilar and report.combinator.bisimilar


def test_context_wrapped_reductions_preserve_weak_barbs():
    # the non-communication rules never create or destroy eventual barbs
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        p = random_comm_candidate(rng, 2)
        names = [comb.ap(comb.atom(comb.AMP_DECL), interp(n.process))
                 for n in names_occurring(p) if isinstance(n, Quote)]
        wrapped = comb_canon(wrap_context(interp(p)))
        before = weak_barbs(wrapped, names, 6).names
        for succ in step(comb.PRESENTATION, wrapped, rules=NON_COMM_RULES):
            after = weak_barbs(succ, names, 6).names
            assert before == after
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("side", ["process", "combinator"])
def test_bounded_bisim_leaves_no_reference_cycles(side):
    rng = random.Random(57)
    pairs = [(random_comm_candidate(rng), random_comm_candidate(rng)) for _ in range(30)]
    if side == "combinator":
        pairs = [(wrap_context(interp(p)), wrap_context(interp(q))) for p, q in pairs]
    checks = [(p, q, names_occurring(p)[:3]) for p, q in pairs]
    bounded_bisim(*checks[0], 3)
    gc.collect()
    gc.disable()
    try:
        verdicts = [bounded_bisim(p, q, names, 3).bisimilar for p, q, names in checks]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert True in verdicts and False in verdicts
