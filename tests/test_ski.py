"""The three presentations and the two marker theorems at module scale."""

from __future__ import annotations

import random

import pytest

from skirho.core import Term, canonicalize, reduce
from skirho.ski import (
    APP_DECL,
    I,
    I_DECL,
    K,
    R,
    R_DECL,
    S,
    ap,
    contains_marker,
    gas_trace,
    marker_count,
    ski_presentation,
    strip_marker,
    whnf,
    whnf_oracle,
    whnf_run,
    wrap_markers,
)

from gen import random_ski_term

PLAIN = ski_presentation("plain")
WHNF = ski_presentation("whnf")
GAS = ski_presentation("gas")


def skk_s():
    return ap(ap(ap(S(), K()), K()), S())


def omega():
    sii = ap(ap(S(), I()), I())
    return ap(sii, sii)


# ---------------------------------------------------------------------------
# presentations


def test_plain_iota_shape():
    rule = PLAIN.rule("iota")
    assert rule.lhs == Term(APP_DECL, (Term(I_DECL), rule.rhs))


def test_whnf_iota_marks_both_sides():
    rule = WHNF.rule("iota")
    assert rule.lhs.children[0] == Term(ski_decl("R"), (Term(I_DECL),))
    assert isinstance(rule.rhs, Term) and rule.rhs.head.name == "R"


def test_gas_iota_consumes_marker():
    rule = GAS.rule("iota")
    assert rule.lhs == WHNF.rule("iota").lhs
    assert rule.rhs == rule.lhs.children[1]  # plain z, no marker


def ski_decl(name):
    return WHNF.constructor(name)


def test_variant_rejected():
    with pytest.raises(ValueError):
        ski_presentation("lazy")


def test_presentations_share_constructors():
    # terms built for one variant are usable under the others
    t = ap(I(), K())
    assert canonicalize(WHNF, t) == t
    assert not contains_marker(t)


# ---------------------------------------------------------------------------
# marker floats


def test_markers_float_to_the_spine_head():
    t = R(R(ap(ap(S(), K()), I())))
    assert canonicalize(WHNF, t) == ap(ap(R(R(S())), K()), I())


def _sprinkle(t, rng):
    """t with R^1..3 wrapped around some of its subterms."""
    t = Term(t.head, tuple(_sprinkle(c, rng) for c in t.children))
    return wrap_markers(t, rng.randint(1, 3)) if rng.random() < 0.3 else t


def _marker_above_app(t):
    if t.head is R_DECL and t.children[0].head is APP_DECL:
        return True
    return any(_marker_above_app(c) for c in t.children)


@pytest.mark.parametrize("variant", ["whnf", "gas"])
def test_float_canonical_forms(variant):
    pres = ski_presentation(variant)
    rng = random.Random(13)
    for _ in range(300):
        t = _sprinkle(random_ski_term(rng.randint(1, 9), rng), rng)
        c = canonicalize(pres, t)
        assert canonicalize(pres, c) == c
        assert not _marker_above_app(c)
        assert marker_count(c) == marker_count(t)


# ---------------------------------------------------------------------------
# whnf


def test_whnf_atom():
    assert whnf(K()) == K()


def test_whnf_skks():
    assert whnf(skk_s()) == S()


def test_whnf_discards_argument_without_reducing_it():
    t = ap(ap(K(), S()), ap(I(), I()))
    trace = whnf_run(t)
    assert strip_marker(trace.final) == S()
    cur = trace.initial
    for redex, nxt in trace.steps:
        node = cur
        for i in redex.position:
            assert not (node.head is APP_DECL and i == 1), redex.position
            node = node.children[i]
        cur = nxt


def test_whnf_rejects_marked_input():
    with pytest.raises(ValueError):
        whnf(R(K()))


def test_whnf_divergent_returns_none():
    assert whnf(omega(), fuel=60) is None


def test_strip_marker_expects_one_marker():
    with pytest.raises(ValueError):
        strip_marker(K())
    with pytest.raises(ValueError):
        strip_marker(R(R(K())))
    with pytest.raises(ValueError, match="^R is not on the application spine$"):
        strip_marker(ap(S(), R(K())))


def test_marker_scans_return_on_a_deep_spine():
    t = I()
    for _ in range(3000):  # I K K ... K: a left spine 3,000 applications deep
        t = ap(t, K())
    assert not contains_marker(t)
    assert marker_count(R(R(t))) == 2


# ---------------------------------------------------------------------------
# gas


def test_gas_single_step():
    trace = gas_trace(ap(I(), K()), 2)
    assert len(trace.steps) == 1
    assert trace.final == canonicalize(GAS, R(K()))


def test_gas_no_redex_keeps_markers():
    trace = gas_trace(K(), 5)
    assert len(trace.steps) == 0
    assert trace.final == wrap_markers(K(), 5)


def test_gas_exact_budget():
    m = len(whnf_run(skk_s()).steps)
    assert m == 2
    trace = gas_trace(skk_s(), m)
    assert (trace.final, len(trace.steps)) == (S(), 2)


def test_gas_validates_input():
    with pytest.raises(ValueError):
        gas_trace(K(), -1)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_examples():
    assert whnf_oracle(ap(I(), K())) == K()
    assert whnf_oracle(skk_s()) == S()
    assert whnf_oracle(ap(ap(K(), S()), omega())) == S()
    assert whnf_oracle(omega(), fuel=60) is None


def test_oracle_rejects_a_marked_term():
    with pytest.raises(ValueError, match="^term must be R-free$"):
        whnf_oracle(R(S()))


def test_oracle_agrees_with_marked_run():
    t = ap(ap(K(), S()), omega())
    assert whnf(t, fuel=60) == whnf_oracle(t, fuel=60)


# ---------------------------------------------------------------------------
# theorem-shaped properties, module scale (the acceptance suite runs more)


def _convergent_corpus(count, seed, fuel=200):
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        t = random_ski_term(rng.randint(1, 12), rng)
        t_prime = whnf_oracle(t, fuel=fuel)
        if t_prime is not None:
            corpus.append((t, t_prime))
    return corpus


def test_marked_reduction_reaches_oracle_whnf():
    for t, t_prime in _convergent_corpus(120, seed=10):
        trace = whnf_run(t, fuel=200)
        assert trace.status == "normal_form"
        assert strip_marker(trace.final) == t_prime


def test_gas_runs_consume_one_marker_per_step():
    for t, t_prime in _convergent_corpus(60, seed=11):
        m = len(whnf_run(t, fuel=200).steps)
        for n in (m, m + 1, m + 3):
            trace = gas_trace(t, n)
            assert trace.status == "normal_form"
            assert len(trace.steps) == m
            assert trace.final == canonicalize(GAS, wrap_markers(t_prime, n - m))
            for i, (_, term) in enumerate(trace.steps, start=1):
                assert marker_count(term) + i == n


def test_no_shorter_gas_trace_exists():
    # the step count measured from the deterministic strategy is also the
    # breadth-first distance, spot-checked at small scale
    for t, _ in _convergent_corpus(25, seed=12):
        m = len(whnf_run(t, fuel=200).steps)
        if m > 4:
            continue
        bfs = reduce(GAS, wrap_markers(t, m), "all", fuel=m + 1)
        assert bfs.status == "normal_form"
        assert len(bfs.steps) == m


def test_random_term_generator_reproducible():
    a = random_ski_term(9, random.Random(42))
    b = random_ski_term(9, random.Random(42))
    assert a == b
    assert not contains_marker(a)
