"""Rewriting core: canonical forms, matching, redex enumeration, strategies."""

from __future__ import annotations

import hashlib
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from skirho.core import (
    AcuGroup,
    CongruenceSpec,
    ConstructorDecl,
    InvalidRedex,
    MarkerFloat,
    MetaVar,
    Presentation,
    Redex,
    RewriteRule,
    Sort,
    StateBudgetExhausted,
    Term,
    apply_redex,
    canonicalize,
    congruent,
    drive,
    explore,
    find_redexes,
    flatten_term,
    instantiate,
    is_normal,
    iter_redexes,
    match_pattern,
    reduce,
    step,
    subterms,
    term_key,
    validate_presentation,
)
from skirho import comb, core, rho, ski
from skirho.comb import ATOM_DECLS, ZERO_DECL, PAR_DECL, AMP_DECL, BANG_DECL, FOR_DECL, K_DECL
from skirho.ski import I, K, S, ap

from gen import random_comm_candidate, random_process, random_ski_term, random_sorted_comb
from naive import (bfs_distance_to_normal, close_under_monoid_laws, iter_naive_redexes, naive_canonicalize,
                   naive_redexes, naive_ski_step, replace_at)

PLAIN = ski.ski_presentation("plain")
WHNF = ski.ski_presentation("whnf")
COMB = comb.comb_presentation()

T = Sort("T")


def c0():
    return comb.atom(ZERO_DECL)


def out00():
    return comb.aps(comb.atom(BANG_DECL), comb.ap(comb.atom(AMP_DECL), c0()), c0())


def par(a, b):
    return comb.aps(comb.atom(PAR_DECL), a, b)


# ---------------------------------------------------------------------------
# validate_presentation


def test_validate_ski_presentations():
    for variant in ski.VARIANTS:
        report = validate_presentation(ski.ski_presentation(variant))
        assert report.ok, report.defects


def test_validate_comb_presentation():
    assert validate_presentation(COMB).ok


def test_validate_unbound_rhs_metavar():
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.APP_DECL),
        rules=(RewriteRule("bad", Term(ski.I_DECL), MetaVar("w", T)),),
    )
    report = validate_presentation(bad)
    assert not report.ok
    assert any("unbound metavariable" in d for d in report.defects)


def test_validate_empty_presentation():
    assert validate_presentation(Presentation(sorts=(), constructors=())).ok


def test_validate_duplicates_and_sort_mismatch():
    dup = Presentation(sorts=(T, T), constructors=(ski.I_DECL, ski.I_DECL))
    report = validate_presentation(dup)
    assert any("duplicate sort" in d for d in report.defects)
    assert any("duplicate constructor" in d for d in report.defects)

    other = Sort("U")
    weird = ConstructorDecl("u", (), other)
    mismatch = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.APP_DECL, weird),
        rules=(RewriteRule("r", Term(weird), Term(ski.I_DECL)),),
    )
    report = validate_presentation(mismatch)
    assert any("different sorts" in d for d in report.defects)


def test_validate_acu_group_with_undeclared_operator():
    plus = ConstructorDecl("+", (), T)
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.APP_DECL),
        congruence=CongruenceSpec(acu_groups=(AcuGroup(ski.APP_DECL, Term(plus), I()),)),
    )
    assert validate_presentation(bad).defects == ["ACU group: unknown constructor +"]


def test_validate_marker_float_with_undeclared_marker():
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.APP_DECL),
        congruence=CongruenceSpec(marker_floats=(MarkerFloat(ski.R_DECL, ski.APP_DECL),)),
    )
    assert validate_presentation(bad).defects == ["marker float R/app: undeclared constructor R"]


def test_validate_marker_float_with_non_unary_marker():
    pair = ConstructorDecl("pair", (T, T), T)
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.APP_DECL, pair),
        congruence=CongruenceSpec(marker_floats=(MarkerFloat(pair, ski.APP_DECL),)),
    )
    assert validate_presentation(bad).defects == [
        "marker float pair/app: marker pair is not unary and sort-preserving"
    ]


def test_validate_marker_float_with_non_binary_app():
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.R_DECL),
        congruence=CongruenceSpec(marker_floats=(MarkerFloat(ski.R_DECL, ski.R_DECL),)),
    )
    assert validate_presentation(bad).defects == ["marker float R/R: R is not binary"]


def test_validate_metavariable_at_two_sorts():
    U = Sort("U")
    rule = RewriteRule("r", Term(ski.APP_DECL, (MetaVar("x", T), MetaVar("x", U))), MetaVar("x", T))
    bad = Presentation(sorts=(T,), constructors=(ski.I_DECL, ski.APP_DECL), rules=(rule,))
    assert validate_presentation(bad).defects == [
        "rule r lhs: child of app has sort U, expected T",
        "rule r lhs: metavariable x used at two sorts",
    ]


def test_validate_child_of_the_wrong_sort():
    U = Sort("U")
    u = ConstructorDecl("u", (), U)
    rule = RewriteRule("r", Term(ski.APP_DECL, (Term(u), I())), I())
    bad = Presentation(sorts=(T, U), constructors=(ski.I_DECL, ski.APP_DECL, u), rules=(rule,))
    assert validate_presentation(bad).defects == ["rule r lhs: child of app has sort U, expected T"]


def test_validate_acu_group_with_non_binary_operator():
    bad = Presentation(
        sorts=(T,),
        constructors=(ski.I_DECL, ski.R_DECL),
        congruence=CongruenceSpec(acu_groups=(AcuGroup(ski.R_DECL, I(), I()),)),
    )
    assert validate_presentation(bad).defects == ["ACU group operator R is not binary"]


# ---------------------------------------------------------------------------
# canonicalize / congruent


def test_canonicalize_unit_law():
    p = out00()
    assert canonicalize(COMB, par(c0(), p)) == p


def test_canonicalize_marker_propagation():
    t = ski.R(ap(S(), K()))
    assert canonicalize(WHNF, t) == ap(ski.R(S()), K())


def test_congruent_commutativity():
    a, b = out00(), comb.ap(comb.atom(comb.STAR_DECL), comb.ap(comb.atom(AMP_DECL), c0()))
    assert congruent(COMB, par(a, b), par(b, a))


def test_congruent_reflexive():
    t = par(out00(), c0())
    assert congruent(COMB, t, t)


def test_congruent_matches_exhaustive_monoid_closure():
    # every term reachable by the three monoid laws is congruent, and the
    # canonical form itself is in the closure
    a, b = out00(), comb.ap(comb.atom(comb.STAR_DECL), comb.ap(comb.atom(AMP_DECL), c0()))
    t = par(c0(), par(a, b))
    closure = close_under_monoid_laws(t, comb.APP_DECL, comb.atom(PAR_DECL), c0())
    u = par(b, a)
    assert u in closure
    assert congruent(COMB, t, u)
    for variant in list(closure)[:200]:
        assert congruent(COMB, t, variant)


# ---------------------------------------------------------------------------
# match_pattern


def test_match_iota():
    rule = PLAIN.rule("iota")
    binding = match_pattern(PLAIN, rule.lhs, ap(I(), K()))
    assert binding == {"z": K()}


def test_match_bare_metavar():
    t = ap(S(), K())
    assert match_pattern(PLAIN, MetaVar("x", T), t) == {"x": t}


def test_match_comm_rule_decomposition():
    forterm = comb.aps(comb.atom(FOR_DECL), comb.ap(comb.atom(AMP_DECL), c0()),
                       comb.ap(comb.atom(K_DECL), c0()))
    t = par(comb.atom(comb.C_DECL), par(forterm, out00()))
    rule = COMB.rule("xi")
    binding = match_pattern(COMB, rule.lhs, t)
    assert binding == {"P": c0(), "Q": comb.ap(comb.atom(K_DECL), c0()), "R": c0()}
    # replay: instantiating the lhs with the binding lands in the same class
    from skirho.core import instantiate

    assert congruent(COMB, instantiate(rule.lhs, binding), t)


def test_match_repeated_metavar_requires_congruent_bindings():
    rule = COMB.rule("xi")
    forterm = comb.aps(comb.atom(FOR_DECL), comb.ap(comb.atom(AMP_DECL), c0()),
                       comb.ap(comb.atom(K_DECL), c0()))
    othersubject = comb.ap(comb.atom(AMP_DECL), out00())
    badout = comb.aps(comb.atom(BANG_DECL), othersubject, c0())
    t = par(comb.atom(comb.C_DECL), par(forterm, badout))
    assert match_pattern(COMB, rule.lhs, t) is None


def test_match_group_pattern_that_is_no_rule_side():
    forterm = comb.aps(comb.atom(FOR_DECL), comb.ap(comb.atom(AMP_DECL), c0()),
                       comb.ap(comb.atom(K_DECL), c0()))
    rest = par(out00(), forterm)
    pat = comb.aps(comb.atom(PAR_DECL), comb.atom(comb.C_DECL), MetaVar("X", T))
    binding = match_pattern(comb.PRESENTATION, pat, comb.wrap_context(rest))
    assert binding == {"X": canonicalize(COMB, rest)}


def test_rule_analysis_belongs_to_the_instance():
    p = comb.PRESENTATION
    copy = Presentation(p.sorts, p.constructors, p.congruence, p.rules)
    assert copy == comb.PRESENTATION and copy is not comb.PRESENTATION
    rng = random.Random(3)
    found = 0
    for _ in range(12):
        wrapped = comb.canon(comb.wrap_context(comb.interp(random_process(rng, 3))))
        redexes = find_redexes(comb.PRESENTATION, wrapped)
        assert find_redexes(copy, wrapped) == redexes
        found += len(redexes)
    assert found > 0


# ---------------------------------------------------------------------------
# find_redexes / apply_redex / step


def test_find_redexes_nested_iota():
    t = ap(I(), ap(I(), K()))
    rs = find_redexes(PLAIN, t)
    assert [(r.rule, r.position) for r in rs] == [("iota", ()), ("iota", (1,))]


def test_find_redexes_atom():
    assert find_redexes(PLAIN, S()) == []


def test_find_redexes_kappa_root():
    t = ap(ap(K(), S()), I())
    rs = find_redexes(PLAIN, t)
    assert [(r.rule, r.position) for r in rs] == [("kappa", ())]


def test_apply_redex_iota():
    t = ap(I(), K())
    (r,) = find_redexes(PLAIN, t)
    assert apply_redex(PLAIN, t, r) == K()


def test_apply_redex_sigma():
    t = ap(ap(ap(S(), K()), I()), S())
    r = next(x for x in find_redexes(PLAIN, t) if x.rule == "sigma")
    assert apply_redex(PLAIN, t, r) == ap(ap(K(), S()), ap(I(), S()))


def test_apply_redex_inner_position():
    t = ap(I(), ap(I(), K()))
    inner = next(r for r in find_redexes(PLAIN, t) if r.position == (1,))
    assert apply_redex(PLAIN, t, inner) == ap(I(), K())


def test_apply_redex_stale_raises():
    t = ap(I(), K())
    (r,) = find_redexes(PLAIN, t)
    with pytest.raises(InvalidRedex):
        apply_redex(PLAIN, K(), r)


def test_step_examples():
    assert step(PLAIN, K()) == set()
    assert step(PLAIN, ap(I(), K())) == {K()}
    assert step(PLAIN, ap(I(), ap(I(), K()))) == {ap(I(), K())}


def test_is_normal():
    assert is_normal(PLAIN, K())
    assert not is_normal(PLAIN, ap(I(), K()))
    assert not is_normal(PLAIN, ap(ap(K(), S()), I()))


def test_is_normal_reads_the_rule_summary(monkeypatch):
    # a term whose summary holds no bit of the named rules is normal without
    # an enumeration of its redexes; one whose summary holds a bit is enumerated
    def enumerate_redexes(*args):
        raise AssertionError("redexes enumerated")

    monkeypatch.setattr(core, "_matches", enumerate_redexes)
    assert is_normal(PLAIN, ap(ap(S(), K()), K()))
    assert is_normal(PLAIN, ap(I(), K()), rules=("sigma", "kappa"))
    with pytest.raises(AssertionError, match="enumerated"):
        is_normal(PLAIN, ap(I(), K()))


def test_is_normal_agrees_with_step_and_builds_no_successor(monkeypatch):
    rng = random.Random(71)
    gas = ski.ski_presentation("gas")
    cases = []
    for _ in range(60):
        t = random_ski_term(rng.randint(1, 12), rng)
        cases += [(PLAIN, t, None), (WHNF, ski.R(t), None), (gas, ski.wrap_markers(t, rng.randint(0, 3)), None)]
        u = comb.wrap_context(random_sorted_comb(rng, depth=2, expansions=rng.randint(0, 2)))
        cases += [(COMB, u, None), (COMB, u, ("sigma", "kappa", "iota"))]
    for _ in range(20):  # criterion 8 shapes: communicating groups
        cases.append((COMB, comb.wrap_context(comb.interp(random_comm_candidate(rng, 3))), None))
    normal = [not step(p, t, rules) for p, t, rules in cases]
    assert [is_normal(p, t, rules) for p, t, rules in cases] == normal
    assert 50 < sum(normal) < len(cases) - 50

    # the answer comes from the first match: no successor is built
    def build(*args):
        raise AssertionError("successor built")

    monkeypatch.setattr(core, "_graft", build)
    assert [is_normal(p, t, rules) for p, t, rules in cases] == normal
    with pytest.raises(AssertionError, match="successor built"):
        step(PLAIN, ap(I(), K()))


def test_unknown_rule_names_are_rejected():
    t = ap(I(), K())
    calls = [
        lambda: list(iter_redexes(PLAIN, t, rules=("iota", "sigm"))),
        lambda: step(PLAIN, t, rules=("sigm",)),
        lambda: find_redexes(PLAIN, t, rules=("sigm",)),
        lambda: is_normal(PLAIN, K(), rules=("sigm",)),
        lambda: reduce(PLAIN, K(), "first", 5, rules=("sigm",)),
        lambda: reduce(COMB, c0(), "all", 5, rules=("sigm", "iota"), target=c0()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'sigm'"):
            call()
    assert step(PLAIN, t, rules=()) == set()


def test_rule_selection_is_made_once_and_an_unknown_name_fails_every_call():
    t = ap(I(), K())
    for _ in range(3):
        with pytest.raises(ValueError, match="'sigm'"):
            step(PLAIN, t, rules=("iota", "sigm"))
    assert step(PLAIN, t, rules=["iota"]) == step(PLAIN, t, rules=("iota",)) == {K()}
    assert core._select(PLAIN, ["iota"]) is core._select(PLAIN, ("iota",))
    assert [r.rule.name for r in core._select(COMB, ("xi", "sigma"))] == ["sigma", "xi"]


# ---------------------------------------------------------------------------
# reduce


def test_reduce_first_two_steps():
    trace = reduce(PLAIN, ap(ap(ap(S(), K()), K()), S()), "first", 10)
    assert trace.status == "normal_form"
    assert len(trace.steps) == 2
    assert trace.final == S()


def test_reduce_normal_form_immediately():
    trace = reduce(PLAIN, K(), "first", 10)
    assert trace.status == "normal_form"
    assert trace.steps == []


def test_reduce_all_zero_fuel():
    trace = reduce(PLAIN, ap(I(), K()), "all", 0)
    assert trace.status == "fuel_exhausted"
    assert trace.steps == []


def test_reduce_random_reproducible():
    t = ap(ap(ap(S(), ap(I(), K())), I()), ap(I(), S()))
    a = reduce(PLAIN, t, "random", 50, seed=7)
    b = reduce(PLAIN, t, "random", 50, seed=7)
    assert [s for _, s in a.steps] == [s for _, s in b.steps]


def test_lookups_and_instantiation_fail_on_what_is_missing():
    with pytest.raises(KeyError):
        PLAIN.rule("nope")
    with pytest.raises(KeyError):
        PLAIN.constructor("nope")
    with pytest.raises(core.RewriteError, match="metavariable x is unbound"):
        instantiate(ap(MetaVar("x", ski.T), S()), {})


def test_reduce_unknown_strategy():
    with pytest.raises(ValueError):
        reduce(PLAIN, K(), "weird", 1)


# ---------------------------------------------------------------------------
# drive and explore over a toy integer graph: 0 -> 1, 2; 1 -> 3; 2 -> 3, 0;
# 3 -> 0, 4; 4 is the only normal form; 0 -> 1 -> 3 -> 0 is a cycle


GRAPH = {0: (1, 2), 1: (3,), 2: (3, 0), 3: (0, 4), 4: ()}


def toy(n):
    for m in GRAPH[n]:
        yield Redex(f"{n}>{m}", (), {}), m


def labels(trace):
    return [redex.rule for redex, _ in trace.steps]


def test_explore_discovery_order_and_parents():
    parents = {}
    assert list(explore(0, toy, 10, parents)) == [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3)]
    assert {m: (n, r.rule) for m, (n, r) in parents.items()} == {
        1: (0, "0>1"), 2: (0, "0>2"), 3: (1, "1>3"), 4: (3, "3>4")}


def test_explore_does_not_expand_at_fuel():
    assert list(explore(0, toy, 1)) == [(0, 0), (1, 1), (2, 1)]
    assert list(explore(0, toy, 0)) == [(0, 0)]


def test_explore_cycle_inside_bound_leaves_nothing_beyond():
    # the rule weak_barbs uses: truncated iff some state lies at depth bound + 1
    cycle = {0: (1,), 1: (2,), 2: (0,)}

    def succ(n):
        return [(None, m) for m in cycle[n]]

    assert max(d for _, d in explore(0, succ, 2 + 1)) == 2
    assert max(d for _, d in explore(0, succ, 1 + 1)) == 2


def test_explore_ends_at_the_goal_it_discovers():
    parents = {}
    assert list(explore(0, toy, 10, parents, goal=3)) == [(0, 0), (1, 1), (3, 2)]
    assert parents[3][0] == 1 and parents[3][1].rule == "1>3"
    assert list(explore(0, toy, 10, goal=4))[-1] == (4, 3)
    assert [s for s, _ in explore(0, toy, 1, goal=3)] == [0, 1, 2]  # beyond the fuel
    # the goal is yielded without being visited: the budget counts what it would without a goal
    assert list(explore(0, toy, 10, state_budget=1, goal=2)) == [(0, 0), (2, 1)]
    assert list(explore(0, toy, 10, state_budget=2, goal=3)) == [(0, 0), (1, 1), (3, 2)]
    with pytest.raises(StateBudgetExhausted):
        list(explore(0, toy, 10, state_budget=1, goal=3))


def test_drive_all_is_shortest():
    trace = drive(0, toy, "all", 10)
    assert trace.status == "normal_form"
    assert labels(trace) == ["0>1", "1>3", "3>4"]
    assert trace.final == 4
    trace = drive(0, toy, "all", 10, goal=3)
    assert trace.status == "target_reached"
    assert labels(trace) == ["0>1", "1>3"]
    assert drive(0, toy, "all", 2).status == "fuel_exhausted"


def test_drive_all_stops_when_the_target_is_discovered():
    # a binary tree 1 -> 2, 3; 2 -> 4, 5; ...: 5 is discovered expanding 2
    expanded = []

    def tree(n):
        expanded.append(n)
        for m in (2 * n, 2 * n + 1):
            yield Redex(f"{n}>{m}", (), {}), (m,)

    goal = (5,)
    trace = drive((1,), lambda state: tree(state[0]), "all", 10, goal=goal)
    assert trace.status == "target_reached"
    assert labels(trace) == ["1>2", "2>5"]
    assert expanded == [1, 2]
    assert trace.final == goal and trace.final is not goal
    expanded.clear()
    assert drive((5,), lambda state: tree(state[0]), "all", 10, goal=goal).steps == []
    assert drive((1,), lambda state: tree(state[0]), "all", 0, goal=goal).status == "fuel_exhausted"
    assert expanded == []


def test_drive_first_follows_first_edges():
    trace = drive(0, toy, "first", 6)
    assert trace.status == "fuel_exhausted"
    assert [s for _, s in trace.steps] == [1, 3, 0, 1, 3, 0]
    trace = drive(0, toy, "first", 6, goal=3)
    assert trace.status == "target_reached"
    assert labels(trace) == ["0>1", "1>3"]
    assert drive(4, toy, "first", 0).status == "normal_form"


def test_drive_random_is_seeded_walk():
    a = drive(0, toy, "random", 100, seed=3)
    assert a.status == "normal_form" and a.final == 4
    walk = [0] + [s for _, s in a.steps]
    assert all(m in GRAPH[n] for n, m in zip(walk, walk[1:]))
    assert labels(drive(0, toy, "random", 100, seed=3)) == labels(a)


def test_state_budget_reports_fuel_exhausted():
    with pytest.raises(StateBudgetExhausted):
        list(explore(0, toy, 10, state_budget=4))
    assert len(list(explore(0, toy, 10, state_budget=5))) == 5
    for goal in (None, 4):
        trace = drive(0, toy, "all", 10, goal=goal, state_budget=2)
        assert trace.status == "fuel_exhausted"
        assert trace.steps == []
    # the process calculus runs through the same driver
    p = rho.canon_process(rho.par_of([rho.Input(rho.Quote(rho.ZERO), "y", rho.ZERO),
                                      rho.Output(rho.Quote(rho.ZERO), rho.ZERO)]))
    assert drive(p, rho.comm_edges, "all", 5).status == "normal_form"
    assert drive(p, rho.comm_edges, "all", 5, state_budget=1).status == "fuel_exhausted"


# ---------------------------------------------------------------------------
# properties


def _random_plain_term(rng, size):
    return random_ski_term(size, rng)


def _random_comb_term(rng):
    return random_sorted_comb(rng, depth=2, expansions=2)


def test_canonicalize_idempotent_random():
    rng = random.Random(0)
    for _ in range(200):
        t = canonicalize(COMB, _random_comb_term(rng))
        assert canonicalize(COMB, t) == t
    for _ in range(200):
        t = canonicalize(WHNF, ski.R(_random_plain_term(rng, rng.randint(1, 8))))
        assert canonicalize(WHNF, t) == t


def test_congruent_equivalence_relation():
    rng = random.Random(1)
    pool = [_random_comb_term(rng) for _ in range(30)]
    for t in pool:
        assert congruent(COMB, t, t)
    for t in pool[:10]:
        for u in pool[:10]:
            assert congruent(COMB, t, u) == congruent(COMB, u, t)
    for t in pool[:6]:
        for u in pool[:6]:
            for v in pool[:6]:
                if congruent(COMB, t, u) and congruent(COMB, u, v):
                    assert congruent(COMB, t, v)


def test_replay_soundness_random():
    rng = random.Random(2)
    for _ in range(120):
        t = canonicalize(COMB, comb.wrap_context(_random_comb_term(rng)))
        for r in find_redexes(COMB, t):
            assert apply_redex(COMB, t, r) in step(COMB, t)
    for _ in range(120):
        t = _random_plain_term(rng, rng.randint(1, 8))
        for r in find_redexes(PLAIN, t):
            assert apply_redex(PLAIN, t, r) in step(PLAIN, t)


def test_step_matches_naive_oracle_small():
    rng = random.Random(3)
    for _ in range(400):
        t = _random_plain_term(rng, rng.randint(1, 7))
        assert step(PLAIN, t) == naive_ski_step(t)


def test_strategy_soundness():
    rng = random.Random(4)
    for strategy in ("first", "random", "all"):
        for _ in range(40):
            t = _random_plain_term(rng, rng.randint(1, 7))
            trace = reduce(PLAIN, t, strategy, 8, seed=5)
            cur = trace.initial
            for _, nxt in trace.steps:
                assert nxt in step(PLAIN, cur)
                cur = nxt


def test_all_strategy_is_shortest():
    rng = random.Random(5)
    from naive import enumerate_ski_terms

    corpus = [t for n in range(1, 5) for t in enumerate_ski_terms(n)]
    corpus += [_random_plain_term(rng, rng.randint(5, 6)) for _ in range(400)]
    for t in corpus:
        fuel = 5
        trace = reduce(PLAIN, t, "all", fuel)
        want = bfs_distance_to_normal(t, lambda u: step(PLAIN, u), fuel)
        if want is None:
            assert trace.status == "fuel_exhausted"
        else:
            assert trace.status == "normal_form"
            assert len(trace.steps) == want


# hypothesis: congruence respects the generated monoid structure


@st.composite
def comb_atoms(draw):
    return comb.atom(draw(st.sampled_from(ATOM_DECLS[:7])))


@st.composite
def par_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(comb_atoms())
    return par(draw(par_trees(depth=depth - 1)), draw(par_trees(depth=depth - 1)))


@settings(max_examples=100, deadline=None)
@given(par_trees())
def test_canonicalize_idempotent_hypothesis(t):
    once = canonicalize(COMB, t)
    assert canonicalize(COMB, once) == once


@settings(max_examples=100, deadline=None)
@given(par_trees(), par_trees())
def test_par_commutes_hypothesis(a, b):
    assert congruent(COMB, par(a, b), par(b, a))
    assert congruent(COMB, par(a, c0()), a)


# ---------------------------------------------------------------------------
# cached term facts and incremental successors


def _rebuilt(t):
    """A structurally equal copy sharing no node with t."""
    return Term(t.head, tuple(_rebuilt(c) for c in t.children))


def _same(t, u):
    return (t.head.name == u.head.name and t.head.argument_sorts == u.head.argument_sorts
            and t.head.result_sort == u.head.result_sort and len(t.children) == len(u.children)
            and all(_same(a, b) for a, b in zip(t.children, u.children)))


def _structural_hash(t):
    h = hash((t.head.name, t.head.argument_sorts, t.head.result_sort))
    for c in t.children:
        h = hash((h, _structural_hash(c)))
    return h


def _structural_key(t):
    return (t.head.name, len(t.children), tuple(_structural_key(c) for c in t.children))


def _sprinkled(t, rng):
    """t with R^1..3 wrapped around some of its subterms, sometimes the root."""
    t = Term(t.head, tuple(_sprinkled(c, rng) for c in t.children))
    return ski.wrap_markers(t, rng.randint(1, 3)) if rng.random() < 0.3 else t


def _term_pool(rng):
    pool = [_random_plain_term(rng, rng.randint(1, 9)) for _ in range(40)]
    pool += [_sprinkled(t, rng) for t in pool[:20]]
    pool += [comb.wrap_context(_random_comb_term(rng)) for _ in range(20)]
    return pool + [canonicalize(COMB, t) for t in pool[-10:]]


def test_cached_hash_and_key_equal_a_structural_recomputation():
    for t in _term_pool(random.Random(21)):
        assert hash(t) == _structural_hash(t) == hash(_rebuilt(t))
        assert term_key(t) == _structural_key(t)
        assert term_key(t) is term_key(t)  # computed once, then read back


def test_equality_agrees_with_structure():
    rng = random.Random(22)
    pool = _term_pool(rng)
    pairs = [(t, _rebuilt(t)) for t in pool]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
    for t, u in pairs:
        assert (t == u) == _same(t, u) == (not t != u)
        if t == u:
            assert hash(t) == hash(u)


def test_name_tokens_minted_apart_are_equal():
    x1, x2 = comb.name_token("x"), comb.name_token("x")
    assert x1.head is not x2.head
    assert x1.head == x2.head and hash(x1.head) == hash(x2.head)
    t1 = comb.aps(comb.atom(BANG_DECL), comb.ap(comb.atom(AMP_DECL), x1), c0())
    t2 = comb.aps(comb.atom(BANG_DECL), comb.ap(comb.atom(AMP_DECL), x2), c0())
    assert t1 == t2 and hash(t1) == hash(t2) and term_key(t1) == term_key(t2)
    y = comb.name_token("y")
    assert t1 != comb.aps(comb.atom(BANG_DECL), comb.ap(comb.atom(AMP_DECL), y), c0())
    assert len({t1, t2}) == 1


def test_terms_are_immutable():
    t = ap(S(), K())
    for name, value in (("head", ski.I_DECL), ("children", ()), ("_hash", 0), ("_key", None),
                        ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        del t.head
    assert t == ap(S(), K()) and t.head is ski.APP_DECL
    with pytest.raises(ValueError):
        Term(ski.APP_DECL, (S(),))


def test_a_new_term_starts_with_its_kept_values_none():
    t = ap(S(), K())
    assert t._key is None and t._mark is None
    assert term_key(t) == t._key == ("app", 2, (term_key(S()), term_key(K())))
    assert t._mark is None
    canonicalize(WHNF, t)
    assert t._mark[0] is WHNF


def _old_successor(p, t, r, marker):
    """The successor by its definition: instantiate, wrap, replace, and
    canonicalize every node again."""
    rule = p.rule(r.rule)
    inst = instantiate(rule.rhs, r.binding)
    if r.rest is not None:
        g = p.congruence.acu_groups[0]
        if r.rest != g.unit:
            inst = Term(g.app, (Term(g.app, (g.operator, inst)), r.rest))
    for _ in range(r.peel):
        inst = Term(marker, (inst,))
    return naive_canonicalize(p, replace_at(t, r.position, inst))


def test_incremental_successors_match_whole_term_canonicalization():
    rng = random.Random(23)
    cases = []
    for _ in range(60):  # criterion 8 shapes: communicating groups and groups of 2-12
        cases.append((COMB, comb.wrap_context(comb.interp(random_comm_candidate(rng, 3)))))
        group = random_process(rng, 2)
        for _ in range(rng.randint(1, 11)):
            group = rho.Par(group, random_process(rng, rng.randint(1, 2)))
        cases.append((COMB, comb.wrap_context(comb.interp(group))))
    for _ in range(30):  # criterion 5 shape: sorted combinators with S/K/I detours
        cases.append((COMB, comb.wrap_context(random_sorted_comb(rng, depth=3, expansions=3))))
    for variant in ("whnf", "gas"):
        for _ in range(150):
            t = _sprinkled(_random_plain_term(rng, rng.randint(2, 10)), rng)
            cases.append((ski.ski_presentation(variant), ski.R(t) if rng.random() < 0.5 else t))
    peeled = rested = checked = 0
    for p, t in cases:
        t = canonicalize(p, t)
        for r, succ in iter_redexes(p, t):
            assert succ == _old_successor(p, t, r, ski.R_DECL)
            checked += 1
            peeled += r.peel > 0
            rested += r.rest is not None and r.rest != COMB.congruence.acu_groups[0].unit
    assert checked > 500 and peeled > 100 and rested > 100


# ---------------------------------------------------------------------------
# the rule index and compiled matchers against the naive enumerator

_X, _Y, _P, _Q = (MetaVar(n, T) for n in ("X", "Y", "P", "Q"))
_CA = comb.atom

TOY_COMB = Presentation(  # generic paths no built-in presentation takes
    sorts=(T,),
    constructors=COMB.constructors,
    congruence=COMB.congruence,
    rules=(
        # a group of one element (K) and a collector: may match outside a group
        RewriteRule("solo", par(_CA(K_DECL), _X), _X),
        # two collectors, splitting the leftover every way
        RewriteRule("two", par(comb.ap(_CA(AMP_DECL), _P), par(_X, _Y)), par(_Y, _X)),
        # no required atom and no collector: the leftover is the rest
        RewriteRule("pair", par(comb.ap(_CA(comb.STAR_DECL), _P), comb.ap(_CA(AMP_DECL), _Q)), _P),
        # a group below a non-group root
        RewriteRule("nest", comb.ap(_CA(BANG_DECL), par(_CA(comb.C_DECL), _X)), _X),
        # a metavariable at the spine head: no spine key
        RewriteRule("wild", comb.ap(_P, comb.ap(_CA(AMP_DECL), _Q)), comb.ap(_Q, _P)),
        # a collector bound outside its group: the group holds a copy of its elements
        RewriteRule("bound", comb.ap(comb.ap(_CA(BANG_DECL), _X), par(_CA(comb.C_DECL), _X)), _X),
        # one collector twice in a group: the leftover splits into two equal halves
        RewriteRule("twice", par(_CA(K_DECL), par(_X, _X)), _X),
    ),
)

TOY_SKI = Presentation(
    sorts=(T,),
    constructors=WHNF.constructors,
    congruence=WHNF.congruence,
    rules=(
        RewriteRule("iota0", ap(I(), MetaVar("x", T)), MetaVar("x", T)),  # peels every marker
        RewriteRule("kappa2", ap(ap(ski.R(ski.R(K())), MetaVar("x", T)), MetaVar("y", T)),
                    MetaVar("x", T)),
        RewriteRule("wild", ap(MetaVar("x", T), ski.R(MetaVar("y", T))),
                    ap(MetaVar("y", T), MetaVar("x", T))),
        RewriteRule("grow", S(), ap(K(), S())),  # the markers over a leaf float onto the new spine
    ),
)


def _toy_comb_term(rng):
    atoms = [_CA(d) for d in (ZERO_DECL, K_DECL, comb.C_DECL, comb.I_DECL)]

    def leaf():
        roll = rng.random()
        if roll < 0.3:
            return comb.ap(_CA(AMP_DECL), rng.choice(atoms))
        if roll < 0.45:
            return comb.ap(_CA(comb.STAR_DECL), rng.choice(atoms))
        return rng.choice(atoms)

    def grow(depth):
        if depth == 0:
            return leaf()
        roll = rng.random()
        if roll < 0.4:
            return par(grow(depth - 1), grow(depth - 1))
        if roll < 0.6:
            return comb.ap(_CA(BANG_DECL), grow(depth - 1))
        if roll < 0.8:
            return comb.ap(grow(depth - 1), grow(depth - 1))
        return leaf()

    return grow(4)


def _index_cases():
    rng = random.Random(31)
    cases = []
    for variant in ski.VARIANTS:
        for _ in range(60):
            t = _random_plain_term(rng, rng.randint(1, 10))
            if variant != "plain":
                t = _sprinkled(t, rng)  # R^1..3 around random subterms: peel > 0
                t = ski.R(t) if rng.random() < 0.5 else t
            cases.append((ski.ski_presentation(variant), t))
            cases.append((TOY_SKI, t))
    for _ in range(40):  # criterion 8 shapes: comm candidates and groups of 2-12
        cases.append((COMB, comb.wrap_context(comb.interp(random_comm_candidate(rng, 3)))))
        group = random_process(rng, 2)
        for _ in range(rng.randint(1, 11)):
            group = rho.Par(group, random_process(rng, rng.randint(1, 2)))
        cases.append((COMB, comb.wrap_context(comb.interp(group))))
        cases.append((COMB, random_sorted_comb(rng, depth=3, expansions=3)))
    cases += [(TOY_COMB, _toy_comb_term(rng)) for _ in range(150)]
    # the bound collector's and the repeated collector's groups, met and missed
    k, i, c, amp0 = _CA(K_DECL), _CA(comb.I_DECL), _CA(comb.C_DECL), comb.ap(_CA(AMP_DECL), c0())
    bang = comb.ap(_CA(BANG_DECL), par(k, amp0))
    cases += [(TOY_COMB, t) for t in (
        comb.ap(comb.ap(_CA(BANG_DECL), k), par(c, k)),
        comb.ap(comb.ap(_CA(BANG_DECL), c0()), par(c, c0())),
        comb.ap(bang, par(c, par(amp0, k))),
        comb.ap(bang, par(c, par(amp0, par(k, i)))),
        comb.ap(bang, par(c, amp0)),
        par(k, par(amp0, amp0)),
        par(k, par(i, par(amp0, par(i, amp0)))),
        par(k, par(i, par(amp0, i))),
        comb.ap(_CA(BANG_DECL), par(c, par(k, par(i, i)))),
    )]
    return cases


def test_indexed_enumeration_matches_the_naive_enumerator():
    counts = dict.fromkeys(("redexes", "peeled", "rested", "subsets"), 0)
    for p, t in _index_cases():
        t = canonicalize(p, t)
        names = [r.name for r in p.rules]
        for rules in (None, names[:1], names[1:], names[::2]):
            got = list(iter_redexes(p, t, rules))
            assert got == naive_redexes(p, t, rules), (t, rules)
            assert all(canonicalize(p, succ) is succ for _, succ in got)
            if rules is None:
                counts["redexes"] += len(got)
                counts["peeled"] += sum(r.peel > 0 for r, _ in got)
                counts["rested"] += sum(r.rest not in (None, c0()) for r, _ in got)
            else:
                counts["subsets"] += len(got)
    assert counts["redexes"] > 2000 and counts["subsets"] > 2000, counts
    assert counts["peeled"] > 100 and counts["rested"] > 100, counts


def test_toy_rules_fire_on_every_generic_path():
    fired = {}
    for p, t in _index_cases():
        if p in (TOY_COMB, TOY_SKI):
            for r in find_redexes(p, t):
                fired[r.rule] = fired.get(r.rule, 0) + 1
    assert set(fired) == {"solo", "two", "pair", "nest", "wild", "bound", "twice",
                          "iota0", "kappa2", "grow"}, fired
    # the one-element group patterns match an atom outside any group
    assert [(r.rule, r.binding) for r in find_redexes(TOY_COMB, _CA(K_DECL))] == [
        ("solo", {"X": c0()}), ("twice", {"X": c0()})]


# ---------------------------------------------------------------------------
# canonicalization against the rebuild-every-node oracle

GROUP = COMB.congruence.acu_groups[0]


def _scrambled(t, rng):
    """t with every group re-associated at random, permuted and padded with units."""
    if flatten_term(GROUP, t) == [t]:
        return Term(t.head, tuple(_scrambled(c, rng) for c in t.children))
    elems = [_scrambled(e, rng) for e in flatten_term(GROUP, t)]
    rng.shuffle(elems)
    for _ in range(rng.randint(0, 2)):
        elems.insert(rng.randint(0, len(elems)), c0())

    def tree(es):
        if len(es) == 1:
            return es[0]
        k = rng.randint(1, len(es) - 1)
        if rng.random() < 0.2:  # ((| 0) (| x)) y: a group only once its head is canonical
            return comb.ap(par(c0(), comb.ap(_CA(PAR_DECL), tree(es[:k]))), tree(es[k:]))
        return par(tree(es[:k]), tree(es[k:]))

    return tree(elems) if elems else c0()


TOY_BOTH = Presentation(  # a group and a floating marker in one presentation
    sorts=(T,),
    constructors=COMB.constructors + (ski.R_DECL,),
    congruence=CongruenceSpec(COMB.congruence.acu_groups, (MarkerFloat(ski.R_DECL, comb.APP_DECL),)),
    rules=COMB.rules,
)


def _canon_cases():
    rng = random.Random(51)
    cases = list(_index_cases())  # every presentation, the toys, R^1..3 around subterms
    for p, t in list(cases):
        if p is COMB or p is TOY_COMB:
            cases.append((p, _scrambled(naive_canonicalize(p, t), rng)))
            cases.append((TOY_BOTH, _sprinkled(_scrambled(t, rng), rng)))
    for variant in ("whnf", "gas"):
        for _ in range(100):
            t = _sprinkled(_random_plain_term(rng, rng.randint(2, 12)), rng)
            cases.append((ski.ski_presentation(variant), ski.R(t) if rng.random() < 0.5 else t))
    return cases


def test_canonicalize_matches_the_naive_canonicalizer():
    counts = dict.fromkeys(("changed", "successors"), 0)
    for p, t in _canon_cases():
        got = canonicalize(p, t)
        assert got == naive_canonicalize(p, t), (p.rules[0].name, t)
        counts["changed"] += got != t
        # idempotent, and a canonical term comes back as itself, marked or not
        assert canonicalize(p, got) is got
        fresh = _rebuilt(got)
        assert canonicalize(p, fresh) is fresh
        # around a node that changes, a canonical sibling is kept as it is
        assert canonicalize(p, ap(ap(K(), t), got)).children[1] is got
        for _, succ in iter_redexes(p, got):
            assert canonicalize(p, succ) is succ and naive_canonicalize(p, succ) == succ
            counts["successors"] += 1
    assert counts["changed"] > 300 and counts["successors"] > 2000, counts


def test_a_mark_holds_for_its_own_presentation_only():
    rng = random.Random(53)
    for _ in range(100):
        # |-groups with R markers around subterms: canonical under one
        # presentation, not under the other
        t = _sprinkled(_scrambled(random_sorted_comb(rng, depth=2, expansions=2), rng), rng)
        for p1, p2 in ((WHNF, COMB), (COMB, WHNF)):
            once = canonicalize(p1, t)
            assert canonicalize(p2, once) == naive_canonicalize(p2, once)
            assert canonicalize(p1, canonicalize(p2, once)) == naive_canonicalize(p1, naive_canonicalize(p2, once))


def test_a_summary_holds_for_its_own_presentation_only():
    rng = random.Random(55)
    for _ in range(150):
        t = canonicalize(WHNF, ski.R(_sprinkled(_random_plain_term(rng, rng.randint(2, 10)), rng)))
        todo = list(t.children)
        while todo:  # every proper subterm enumerated under the plain presentation
            u = todo.pop()
            todo += u.children
            list(iter_redexes(PLAIN, u))
        for p in (WHNF, PLAIN):
            assert list(iter_redexes(p, t)) == naive_redexes(p, t)


def test_group_matching_leaves_no_reference_cycles():
    rng = random.Random(54)
    terms = []
    for _ in range(50):  # criterion 8 shapes
        group = random_process(rng, 2)
        for _ in range(rng.randint(1, 11)):
            group = rho.Par(group, random_process(rng, rng.randint(1, 2)))
        terms.append(canonicalize(COMB, comb.wrap_context(comb.interp(group))))
    step(COMB, terms[0], rules=("xi",))
    gc.collect()
    gc.disable()
    try:
        found = sum(len(step(COMB, t, rules=("xi",))) for t in terms)
        assert found > 0 and gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the enumeration order, pinned


def _pinned_inputs():
    """Seeded inputs of the four calculi the rewriting core runs."""
    from skirho.calculus import CALCULI

    rng = random.Random(61)
    cases = []
    for _ in range(150):
        t = random_ski_term(rng.randint(2, 14), rng)
        cases.append((CALCULI["ski"], t))
        cases.append((CALCULI["ski-whnf"], ski.R(random_ski_term(rng.randint(2, 14), rng))))
        cases.append((CALCULI["ski-gas"], CALCULI["ski-gas"].gas(t, rng.randint(0, 6))))
    for _ in range(50):  # criterion 5 and 8 shapes
        cases.append((CALCULI["rho-comb"], comb.wrap_context(comb.interp(random_comm_candidate(rng, 3)))))
        cases.append((CALCULI["rho-comb"], comb.wrap_context(random_sorted_comb(rng, depth=3, expansions=3))))
    return [(calc, calc.canon(t)) for calc, t in cases]


def _pin_lines(calc, t, seed):
    """Every redex of t with its successor, then a first, random and all run."""
    def redex(r):
        binding = ",".join(f"{k}={calc.print(v)}" for k, v in sorted(r.binding.items()))
        rest = None if r.rest is None else calc.print(r.rest)
        return f"{r.rule}@{r.position} [{binding}] {r.peel} {rest}"

    lines = [f"{redex(r)} -> {calc.print(u)}" for r, u in calc.edges(t)]
    for strategy, fuel in (("first", 12), ("random", 12), ("all", 4)):
        trace = drive(t, calc.edges, strategy, fuel, seed=seed, state_budget=300)
        lines.append(f"{strategy} {trace.status} " + " ".join(
            f"{redex(r)} -> {calc.print(u)}" for r, u in trace.steps))
    return lines


def test_enumeration_order_is_pinned():
    # sha256 of the redex lists and traces, as computed when every
    # enumeration still keyed each position of the whole term
    lines = [line for i, (calc, t) in enumerate(_pinned_inputs()) for line in _pin_lines(calc, t, i)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 2364  # 714 redexes (91 peel markers, 59 keep a rest) and 1,650 runs
    assert digest == "4f2784c5d809c4d682e7df4778e2722a86174da9c2a730db46a7f4e377e6df48"


# ---------------------------------------------------------------------------
# a step pays for its redex path

GROWING = "(((S I) I) ((S (K ((S I) I))) ((S ((S (K S)) K)) (K ((S I) I)))))"


def _unsummarized(p, t):
    """How many nodes of t carry no rule summary under p."""
    n, todo = 0, [t]
    while todo:
        u = todo.pop()
        s = u._mark
        if s is None or s[0] is not p:
            n += 1
            todo += u.children
    return n


def _stale_summaries(p, t):
    """How many nodes of t carry a summary under p other than the one the
    same node gets when a copy of t built from new, unmarked nodes is made
    canonical."""
    def copy(u):
        return Term(u.head, tuple(copy(c) for c in u.children))

    n, todo = 0, [(t, core._canon(p, copy(t)))]
    while todo:
        u, v = todo.pop()
        s, fresh = u._mark, v._mark
        n += s is not None and s[0] is p and fresh is not None and s != fresh
        todo += zip(u.children, v.children)
    return n


def test_a_step_pays_for_its_redex_path_only():
    from skirho.syntax import parse_ski

    start = parse_ski(GROWING, variant="plain")
    fresh = []  # before each enumeration, how many nodes lack a summary

    def edges(u):
        fresh.append(_unsummarized(PLAIN, u))
        return iter_redexes(PLAIN, u)

    trace = drive(start, edges, "first", 300)
    assert len(trace.steps) == 300 and fresh[0] == 33  # the whole start term
    naive = start
    for r, succ in trace.steps:
        assert (r, succ) == next(iter_naive_redexes(PLAIN, naive))
        naive = succ
    assert max(len(r.position) for r, _ in trace.steps) > 10
    # a successor is new only along its redex path and in its right-hand
    # side, and those nodes are settled as they are built: every successor,
    # taken or not, arrives summarized under each presentation, and a taken
    # one's nodes hold the summaries a walk over the whole term gives them
    assert fresh[1:] == [0] * 300
    rng = random.Random(29)
    runs = {"plain": [(PLAIN, start)], "whnf": [(WHNF, ski.R(start))],
            "gas": [(ski.ski_presentation("gas"), ski.wrap_markers(start, 60))],
            "comb": [(COMB, start)] + [(COMB, comb.wrap_context(comb.interp(random_comm_candidate(rng, 3))))
                                       for _ in range(10)]}
    for name, cases in runs.items():
        successors = 0
        for p, t in cases:
            taken = [u for _, u in reduce(p, t, "first", 60).steps]
            assert all(_stale_summaries(p, u) == 0 for u in taken), name
            for u in [t] + taken:
                for r, succ in iter_redexes(p, u):
                    assert _unsummarized(p, succ) == 0, (name, r)
                    successors += 1
        assert successors > 50, name


def _left_spine(t):
    """Head name (a marker's, if one is on the head) and argument names of a
    left spine of leaves."""
    args = []
    while len(t.children) == 2:
        args.append(t.children[1].head.name)
        t = t.children[0]
    return t.head.name, args


def _preorder(t):
    return [t] + [u for c in t.children for u in _preorder(c)]


def test_subterms_is_pre_order():
    x = MetaVar("x", T)
    pat = ap(ap(S(), x), ap(K(), I()))
    assert [repr(u) for u in subterms(pat)] == [
        "(app (app S ?x) (app K I))", "(app S ?x)", "S", "?x", "(app K I)", "K", "I"]
    rng = random.Random(41)
    for _ in range(50):
        t = random_sorted_comb(rng)
        assert list(subterms(t)) == _preorder(t)


def test_deep_terms_do_not_overflow_the_enumerator():
    t = I()
    for _ in range(3000):  # I K K ... K: a left spine 3,000 applications deep
        t = ap(t, K())
    (succ,) = step(PLAIN, t)
    assert _left_spine(succ) == ("K", ["K"] * 2999)
    trace = reduce(PLAIN, t, "first", 10)
    assert [r.rule for r, _ in trace.steps] == ["iota"] + ["kappa"] * 9
    assert trace.steps[0][0].position == (0,) * 2999
    assert _left_spine(trace.final) == ("K", ["K"] * 2981)
    # under a congruence the spine is canonicalized first
    gas = ski.ski_presentation("gas")
    for p, start, status, head, left in ((WHNF, ski.R(t), "fuel_exhausted", "R", 2981),
                                         (gas, ski.wrap_markers(t, 5), "normal_form", "K", 2991),
                                         (COMB, t, "fuel_exhausted", "K", 2981)):
        trace = reduce(p, start, "first", 10)
        assert trace.status == status and _left_spine(trace.final) == (head, ["K"] * left)
        assert [r.rule for r, _ in trace.steps] == ["iota"] + ["kappa"] * (len(trace.steps) - 1)
    assert ski.whnf(t, fuel=5000) == ski.whnf_oracle(t, fuel=5000) == ap(K(), K())


def test_a_marker_chain_floats_in_one_rebuild(monkeypatch):
    spine = K()
    for _ in range(50):  # K K ... K: a left spine of 50 applications
        spine = ap(spine, K())
    t = ski.wrap_markers(spine, 50)
    init, built = Term.__init__, []

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Term, "__init__", counted)
    got = canonicalize(WHNF, t)
    monkeypatch.undo()
    # the 50 markers go onto the spine's head, which is rebuilt around them once
    assert len(built) <= 50 + 50 + 2
    assert got == naive_canonicalize(WHNF, t) and _left_spine(got) == ("R", ["K"] * 50)
    # a canonical chain, marked or not, comes back as itself
    chain = ski.R(ski.R(S()))
    assert canonicalize(WHNF, chain) is chain and canonicalize(WHNF, chain) is chain


def test_repr_writes_deep_terms_without_recursing():
    x = MetaVar("x", T)
    assert [repr(u) for u in (K(), ap(S(), K()), ski.R(ap(I(), K())), ap(ap(S(), x), ap(K(), I())), out00())] == [
        "K", "(app S K)", "(R (app I K))", "(app (app S ?x) (app K I))", "(app (app ! (app & 0)) 0)"]
    deep = ski.parse_ski("(I " * 3000 + "K" + ")" * 3000)
    assert repr(deep) == "(app I " * 3000 + "K" + ")" * 3000


def test_deep_terms_compare_without_recursing():
    spine = "(I " * 3000 + "{}" + ")" * 3000
    a, b, c = (ski.parse_ski(spine.format(leaf)) for leaf in "KKS")
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert core._equal_deep(a, b) and not core._equal_deep(a, c)
    # reducing any I gives the same term: 1,500 equal successors meet in the seen set
    t = ski.parse_ski("(I " * 1500 + "K" + ")" * 1500)
    assert reduce(PLAIN, t, "all", 1).status == "fuel_exhausted"


# ---------------------------------------------------------------------------
# the summary table stays bounded


def _spine_unclipped(p, t):
    """The spine key of a marker-float term (no groups), counted to its leaf."""
    markers = {f.marker for f in p.congruence.marker_floats}
    n = m = 0
    while t.children:
        n, m = n + (t.head not in markers), m + (t.head in markers)
        t = t.children[0]
    return (t.head.name, n, m)


def test_the_summary_table_stops_growing_on_long_gas_runs():
    """Spine keys are clipped where no rule tells them apart: the table of a
    fresh gas presentation stops growing while the runs' spines keep getting
    longer, and every summary's bits are those of the unclipped key."""
    p = ski.ski_presentation("gas")
    gas = Presentation(p.sorts, p.constructors, p.congruence, p.rules)
    rng = random.Random(73)
    sizes = []
    for rounds in range(3):
        for _ in range(150):
            t = random_ski_term(rng.randint(2, 30 + 30 * rounds), rng)
            start = ski.wrap_markers(t, rng.randint(0, 20 + 20 * rounds))
            reduce(gas, start, "first", 40)
        spine = canonicalize(gas, ski.wrap_markers(_left_spine_of(60 * (rounds + 1)), 9 * rounds))
        sizes.append(len(gas._summaries))
    assert sizes[0] == sizes[1] == sizes[2] <= 60, sizes
    todo = [spine]
    while todo:
        u = todo.pop()
        todo += u.children
        assert u._mark[3] == core._own(gas, _spine_unclipped(gas, u), None)


def _left_spine_of(n):
    """S K K ... K, n applications: every prefix of length 3 on is a sigma spine."""
    t = S()
    for _ in range(n):
        t = ap(t, K())
    return t
