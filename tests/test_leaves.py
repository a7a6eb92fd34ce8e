"""Shared leaves: one `Term` per nullary constructor.

The term helpers, the parsers and `instantiate` build every leaf of a
declared atom as the one object `core.leaf(decl)`, so the mark, rule summary
and order key on it are made once.  A leaf shared by several presentations
carries the mark of whichever presentation marked it last; every enumeration
and every run below is checked against the oracles of `tests/naive.py`,
which use no marks, so a mark trusted under the wrong presentation shows up.
"""

from __future__ import annotations

import random

from skirho import comb, ski
from skirho.core import (
    ConstructorDecl,
    MetaVar,
    Presentation,
    RewriteRule,
    canonicalize,
    drive,
    instantiate,
    iter_redexes,
    leaf,
    pattern_metavars,
    subterms,
)
from skirho.syntax import parse_comb, parse_ski

from gen import random_comm_candidate, random_ski_term, random_sorted_comb
from naive import iter_naive_redexes, naive_canonicalize, naive_redexes

COMB = comb.PRESENTATION
_X = MetaVar("X", comb.T)


def _leaves(t):
    return [u for u in subterms(t) if not u.children]


def _par(a, b):
    return comb.aps(comb.atom(comb.PAR_DECL), a, b)


# the combinator atoms under other rules: a one-element group rule is tried at
# every atom `K`, and the bits of the rules come in another order
TOY = Presentation(
    sorts=COMB.sorts,
    constructors=COMB.constructors,
    congruence=COMB.congruence,
    rules=(RewriteRule("solo", _par(comb.atom(comb.K_DECL), _X), _X),) + COMB.rules[::-1],
)


def test_a_nullary_constructor_has_one_term():
    for decl in comb.ATOM_DECLS:
        assert comb.atom(decl) is comb.atom(decl) is leaf(decl)
        assert comb.atom(decl).head is decl
    for make, decl in ((ski.S, ski.S_DECL), (ski.K, ski.K_DECL), (ski.I, ski.I_DECL)):
        assert make() is make() is leaf(decl) and make().head is decl
    # a declaration minted apart has its own leaf, and name tokens stay fresh
    apart = ConstructorDecl("S", (), ski.T)
    assert leaf(apart) is not ski.S() and leaf(apart) == ski.S()
    assert comb.name_token("x") is not comb.name_token("x")


def test_comb_and_ski_share_one_signature():
    assert comb.T is ski.T
    for name in ("S_DECL", "K_DECL", "I_DECL", "APP_DECL"):
        assert getattr(comb, name) is getattr(ski, name), name
    assert comb.atom(comb.S_DECL) is ski.S()
    # so a term built by either module prints the same in both
    assert comb.print_comb(ski.ap(ski.S(), ski.K())) == "(S K)" == ski.print_ski(comb.ap(ski.S(), ski.K()))


def test_parsed_leaves_are_the_shared_objects():
    ski_atoms = {"S": ski.S(), "K": ski.K(), "I": ski.I()}
    for variant in ski.VARIANTS:
        text = "((S K) (I (K S)))" if variant == "plain" else "((S K) (I (R (K S))))"
        leaves = _leaves(parse_ski(text, variant=variant))
        assert [u.head.name for u in leaves] == ["S", "K", "I", "K", "S"]
        assert all(u is ski_atoms[u.head.name] for u in leaves)
    leaves = _leaves(parse_comb("(((| C) ((! (& 0)) (* (& (S K))))) I)"))
    assert len(leaves) == 10
    assert all(u is comb.atom(u.head) for u in leaves)


def test_instantiate_keeps_the_leaves_of_a_rule():
    for p in [COMB, TOY] + [ski.ski_presentation(v) for v in ski.VARIANTS]:
        for rule in p.rules:
            binding = {name: comb.name_token(name) for name in pattern_metavars(rule.lhs)}
            want = [binding[u.name] if isinstance(u, MetaVar) else u for u in _leaves(rule.rhs)]
            got = _leaves(instantiate(rule.rhs, binding))
            assert len(got) == len(want) and all(u is w for u, w in zip(got, want)), rule.name
    # so xi's successors keep its |, C and & as the shared atoms
    xi = COMB.rule("xi").rhs
    succ = canonicalize(COMB, instantiate(xi, {"Q": comb.atom(comb.I_DECL), "R": comb.atom(comb.ZERO_DECL)}))
    assert all(u is comb.atom(u.head) for u in _leaves(succ))


def test_a_canonicalized_image_holds_only_shared_leaves():
    rng = random.Random(73)
    for _ in range(40):
        image = comb.wrap_context(comb.interp(random_comm_candidate(rng, 3)))
        t = canonicalize(COMB, image)
        assert t == naive_canonicalize(COMB, image)
        assert all(u is comb.atom(u.head) for u in _leaves(t))
        for _, succ in iter_redexes(COMB, t):
            assert all(u is comb.atom(u.head) for u in _leaves(succ))


def test_a_group_without_the_context_resource_is_not_offered_its_rules():
    bits = {r.rule.name: r.bit for r in COMB._rule_table}
    comm = bits["xi"] | bits["epsilon"]
    group = comb.interp(random_comm_candidate(random.Random(5), 3))
    bare = canonicalize(COMB, _par(group, comb.ap(comb.atom(comb.STAR_DECL), comb.ap(
        comb.atom(comb.AMP_DECL), comb.atom(comb.ZERO_DECL)))))
    assert bare._mark[2] is not None and not bare._mark[3] & comm and not bare._mark[4] & comm
    wrapped = canonicalize(COMB, comb.wrap_context(bare))
    assert wrapped._mark[3] & comm == comm
    assert list(iter_redexes(COMB, bare)) == naive_redexes(COMB, bare)
    assert list(iter_redexes(COMB, wrapped)) == naive_redexes(COMB, wrapped)


def _runs_agree(p, other, t, seed):
    """Every redex of t, and a first and a random run from it, agree with the
    naive enumerator, which reads no mark, while before each enumeration every
    atom of p is marked for the presentation `other`."""
    atoms = [leaf(d) for d in p.constructors if not d.argument_sorts]

    def edges(u):
        for a in atoms:
            list(iter_redexes(other, a))
        return iter_redexes(p, u)

    t = canonicalize(p, t)
    assert t == naive_canonicalize(p, t)
    assert list(edges(t)) == naive_redexes(p, t)
    for strategy in ("first", "random"):
        got = drive(t, edges, strategy, 8, seed=seed, state_budget=500)
        want = drive(t, lambda u: iter_naive_redexes(p, u), strategy, 8, seed=seed, state_budget=500)
        assert (got.status, got.steps) == (want.status, want.steps), (strategy, t)


def test_leaves_shared_by_the_ski_presentations_carry_no_stale_mark():
    rng = random.Random(75)
    presentations = [ski.ski_presentation(v) for v in ski.VARIANTS]
    for i in range(60):
        t = random_ski_term(rng.randint(1, 12), rng)
        for k, p in enumerate(presentations):  # in turn, on the same leaves
            start = t if k == 0 else ski.wrap_markers(t, rng.randint(1, 3))
            _runs_agree(p, presentations[k - 1], start, i)


def test_leaves_shared_by_two_combinator_presentations_carry_no_stale_mark():
    # S, K and I are also the leaves of the three SKI presentations
    rng = random.Random(77)
    plain = ski.PRESENTATIONS["plain"]
    for i in range(15):
        images = [comb.wrap_context(comb.interp(random_comm_candidate(rng, 3))),
                  random_sorted_comb(rng, depth=2, expansions=2),
                  comb.atom(comb.K_DECL)]
        for t in images:
            _runs_agree(COMB, TOY, t, i)
            _runs_agree(TOY, COMB, t, i)
        t = random_ski_term(rng.randint(1, 12), rng)
        _runs_agree(plain, COMB, t, i)
        _runs_agree(COMB, plain, t, i)
