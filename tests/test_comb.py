"""Combinator presentation, translations, bracket abstraction, sorting."""

from __future__ import annotations

import hashlib
import random

import pytest

from skirho import comb, rho
from skirho.comb import (
    AMP_DECL,
    ArrowSort,
    BANG_DECL,
    C_DECL,
    FOR_DECL,
    I_DECL,
    K_DECL,
    N,
    NON_COMM_RULES,
    PAR_DECL,
    S_DECL,
    STAR_DECL,
    STRUCTURAL_RULES,
    TranslationError,
    W,
    ZERO_DECL,
    abstract_elim,
    ap,
    aps,
    atom,
    backinterp,
    canon,
    comb_presentation,
    interp,
    name_token,
    random_sorted_comb,
    sort_infer,
    wrap_context,
)
from skirho.core import FuelExhausted, instantiate, reduce, step
from skirho.rho import ZERO, Deref, Input, Output, Par, Quote, Var
from skirho.syntax import parse_comb, print_rho

PRES = comb_presentation()


def z():
    return atom(ZERO_DECL)


def quote(t):
    return ap(atom(AMP_DECL), t)


def out00():
    return aps(atom(BANG_DECL), quote(z()), z())


def forterm():
    return aps(atom(FOR_DECL), quote(z()), ap(atom(K_DECL), z()))


# ---------------------------------------------------------------------------
# presentation


def test_sigma_action():
    got = step(PRES, aps(atom(S_DECL), ap(atom(K_DECL), z()), atom(I_DECL), quote(z())),
               rules=("sigma",))
    assert got == {canon(ap(aps(atom(K_DECL), z(), quote(z())), ap(atom(I_DECL), quote(z()))))}


def test_xi_fires_on_communication_shape():
    t = aps(atom(PAR_DECL), atom(C_DECL), aps(atom(PAR_DECL), forterm(), out00()))
    got = step(PRES, t, rules=("xi",))
    want = canon(aps(atom(PAR_DECL), atom(C_DECL), ap(ap(atom(K_DECL), z()), quote(z()))))
    assert got == {want}


def test_epsilon_needs_context():
    bare = ap(atom(STAR_DECL), quote(z()))
    assert step(PRES, bare, rules=("epsilon",)) == set()
    wrapped = wrap_context(bare)
    assert step(PRES, wrapped, rules=("epsilon",)) == {canon(wrap_context(z()))}


def test_xi_fires_with_extra_parallel_components():
    extra = ap(atom(STAR_DECL), quote(out00()))
    t = aps(atom(PAR_DECL), atom(C_DECL),
            aps(atom(PAR_DECL), forterm(), aps(atom(PAR_DECL), out00(), extra)))
    got = step(PRES, t, rules=("xi",))
    want = canon(aps(atom(PAR_DECL), atom(C_DECL),
                     aps(atom(PAR_DECL), ap(ap(atom(K_DECL), z()), quote(z())), extra)))
    assert got == {want}


def test_context_free_rules_fire_anywhere():
    inner = ap(atom(I_DECL), z())
    t = aps(atom(BANG_DECL), quote(inner), z())
    assert step(PRES, t, rules=STRUCTURAL_RULES) == {aps(atom(BANG_DECL), quote(z()), z())}


# ---------------------------------------------------------------------------
# interpretation


def test_interp_stopped():
    assert interp(ZERO) == z()


def test_interp_deref():
    assert interp(Deref(Quote(ZERO))) == ap(atom(STAR_DECL), quote(z()))


def test_interp_input_constant_body():
    assert interp(Input(Quote(ZERO), "y", ZERO)) == forterm()


def test_interp_output():
    assert interp(Output(Quote(ZERO), ZERO)) == out00()


def test_interp_requires_closed():
    with pytest.raises(TranslationError):
        interp(Deref(Var("y")))


# ---------------------------------------------------------------------------
# abstraction elimination


def test_elim_absent_name_is_constant():
    body = interp(ZERO)
    assert abstract_elim("x", body) == ap(atom(K_DECL), body)


def test_elim_constant_applied_recovers_body():
    body = interp(Output(Quote(ZERO), ZERO))
    applied = ap(abstract_elim("x", body), name_token("x"))
    trace = reduce(PRES, applied, "all", 10, rules=STRUCTURAL_RULES, target=body)
    assert trace.status == "target_reached"


def test_elim_deref_of_bound_name():
    eliminated = abstract_elim("x", ap(atom(STAR_DECL), name_token("x")))
    assert eliminated == aps(atom(S_DECL), ap(atom(K_DECL), atom(STAR_DECL)), atom(I_DECL))
    applied = ap(eliminated, name_token("x"))
    want = ap(atom(STAR_DECL), name_token("x"))
    trace = reduce(PRES, applied, "all", 10, rules=STRUCTURAL_RULES, target=want)
    assert trace.status == "target_reached"


def test_elim_output_on_bound_name_matches_hand_expansion():
    # for(x <- &0)(x!0): the continuation sends on the received name
    image = interp(Input(Quote(ZERO), "x", Output(Var("x"), ZERO)))
    cont = image.children[1]
    applied = ap(cont, quote(z()))
    trace = reduce(PRES, applied, "all", 20, rules=STRUCTURAL_RULES, target=out00())
    assert trace.status == "target_reached"


def test_elim_result_has_no_token():
    body = ap(atom(STAR_DECL), name_token("x"))
    eliminated = abstract_elim("x", body)
    assert not comb.contains_name_token(eliminated, "x")


# ---------------------------------------------------------------------------
# sorting


def test_sort_examples():
    assert sort_infer(z()) == W
    assert sort_infer(quote(z())) == N
    assert sort_infer(ap(z(), z())) is None


def test_sort_table_atoms():
    assert sort_infer(atom(C_DECL)) == W
    assert sort_infer(atom(STAR_DECL)) == ArrowSort(N, W)
    assert sort_infer(atom(AMP_DECL)) == ArrowSort(W, N)


def _sort_inputs():
    """100 W-sorted images with S/K/I detours, then 200 S/K/I/atom mixes."""
    rng = random.Random(1982)
    leaves = [atom(d) for d in (S_DECL, K_DECL, I_DECL, S_DECL, K_DECL, I_DECL, ZERO_DECL,
                                AMP_DECL, STAR_DECL, BANG_DECL, FOR_DECL, PAR_DECL)]
    leaves.append(name_token("x"))

    def mix(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        return ap(mix(depth - 1), mix(depth - 1))

    return [random_sorted_comb(rng) for _ in range(100)] + [mix(5) for _ in range(200)]


def test_sort_inference_is_pinned():
    # sha256 of the 300 printed sorts, as computed before unification bound
    # sort variables in place: variable numbers and binding directions hold
    sorts = [sort_infer(t) for t in _sort_inputs()]
    assert all(s == W for s in sorts[:100])
    mixes = sorts[100:]
    assert sum(s is None for s in mixes) == 122 and sum(s not in (None, W) for s in mixes) == 74
    assert sum("'" in repr(s) for s in mixes) == 34
    digest = hashlib.sha256("\n".join(map(repr, sorts)).encode()).hexdigest()
    assert digest == "90a691defcc643e0adcbda2c6ef5c2a121fab5fe168fe0591444dca852495f2c"


def test_sort_interp_is_process_sorted():
    rng = random.Random(31)
    for _ in range(100):
        p = rho.random_process(rng, 3)
        assert sort_infer(interp(p)) == W


def test_sort_elimination_is_name_to_process():
    image = interp(Input(Quote(ZERO), "x", Output(Var("x"), ZERO)))
    cont = image.children[1]
    assert sort_infer(cont) == ArrowSort(N, W)


def test_rule_sides_sort_to_process_sort():
    instantiations = {
        "sigma": {"P": ap(atom(K_DECL), ap(atom(K_DECL), z())),
                  "Q": ap(atom(K_DECL), z()), "R": z()},
        "kappa": {"P": z(), "Q": z()},
        "iota": {"P": z()},
        "xi": {"P": z(), "Q": ap(atom(K_DECL), z()), "R": z()},
        "epsilon": {"P": z()},
    }
    for rule in PRES.rules:
        binding = instantiations[rule.name]
        lhs = instantiate(rule.lhs, binding)
        rhs = instantiate(rule.rhs, binding)
        assert sort_infer(lhs) == W, rule.name
        assert sort_infer(rhs) == W, rule.name


def test_congruence_sides_sort_to_process_sort():
    a, b, c = out00(), ap(atom(STAR_DECL), quote(z())), z()
    pairs = [
        (aps(atom(PAR_DECL), z(), a), a),
        (aps(atom(PAR_DECL), aps(atom(PAR_DECL), a, b), c),
         aps(atom(PAR_DECL), a, aps(atom(PAR_DECL), b, c))),
        (aps(atom(PAR_DECL), a, b), aps(atom(PAR_DECL), b, a)),
    ]
    for lhs, rhs in pairs:
        assert sort_infer(lhs) == W
        assert sort_infer(rhs) == W
        assert canon(lhs) == canon(rhs)


# ---------------------------------------------------------------------------
# back-interpretation


def test_backinterp_stopped():
    assert backinterp(z()) == ZERO


def test_backinterp_output():
    assert backinterp(out00()) == Output(Quote(ZERO), ZERO)


def test_backinterp_input_constant():
    got = backinterp(forterm())
    assert got == rho.canon_process(Input(Quote(ZERO), "w", ZERO))


def test_backinterp_rejects_context():
    with pytest.raises(TranslationError):
        backinterp(wrap_context(z()))


def test_backinterp_rejects_unsorted():
    with pytest.raises(TranslationError):
        backinterp(ap(z(), z()))
    with pytest.raises(TranslationError):
        backinterp(atom(K_DECL))


def test_backinterp_reduces_spines_first():
    t = aps(atom(K_DECL), out00(), quote(z()))
    assert backinterp(t) == Output(Quote(ZERO), ZERO)


def test_backinterp_fresh_name_avoids_capture():
    # continuation that ignores its argument and dereferences a quote
    cont = ap(atom(K_DECL), ap(atom(STAR_DECL), quote(z())))
    t = aps(atom(FOR_DECL), quote(z()), cont)
    got = backinterp(t)
    assert isinstance(got, Input)
    # the pre-existing dereference must not have been bound
    assert got.body == Deref(Quote(ZERO))


def test_backinterp_computed_quote_is_not_bound():
    # the continuation builds *(&0) from S/K detours: no quote of it is
    # written out, yet the dereferenced name is &0, not the bound name
    t = parse_comb("((for (& 0)) ((S (K *)) ((S (K &)) (K 0))))")
    assert print_rho(backinterp(t)) == "for(v0 <- &0)*&0"


def test_backinterp_rejects_bound_name_under_quote():
    # the continuation sends on &(y!0): a bound name inside a quote has no
    # process counterpart, since binders never reach inside a quote
    t = parse_comb("((for (& 0)) ((S ((S (K !)) ((S (K &)) ((S ((S (K !)) I)) (K 0)))))"
                   " (K 0)))")
    with pytest.raises(TranslationError, match="under a quote"):
        backinterp(t)


def test_backinterp_binds_fresh_name_occurrences():
    # continuation that really uses its argument: send on it, then deref it
    p = Input(Quote(ZERO), "x", Par(Output(Var("x"), ZERO), Deref(Var("x"))))
    got = backinterp(interp(p))
    assert got == rho.canon_process(p)


def test_backinterp_outputs_are_pinned():
    # sha256 of the 200 printed processes, as computed before the back
    # translation stopped normalizing subterms of a normal form again
    rng = random.Random(2026)
    outs = [print_rho(backinterp(random_sorted_comb(rng))) for _ in range(200)]
    assert outs[:3] == ["0", "*&0", "&0!for(v0 <- &0)&0!*v0"]
    digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()
    assert digest == "75964f3065612b439f8d4c963e46d35360e154bff2f11378d9f2ae354557a21c"


# S/K/I detours in subjects, quotes and continuations, and inputs inside a
# quote in a continuation, with the least fuel their back translation needs
FUEL_PINS = [
    ("((for (((S (K &)) (K 0)) ((! (& 0)) 0))) ((S ((S (K for)) ((K I) (& 0)))) (K (K (I 0)))))",
     11),
    ("((I (for (& 0))) (((S (K (S ((S (K !)) I)))) (K ((S (K *)) I))) (& ((! (& 0)) 0))))", 11),
    ("(((K (((S (K |)) (K ((for (& 0)) ((S (K *)) I)))) ((for (& 0)) ((S (K *)) I)))) (& 0))"
     " ((for (& 0)) ((S (K *)) I)))", 10),
    ("((for (& 0)) ((S ((S (K !)) I)) ((S ((((K I) 0) K) *)) I)))", 9),
    ("((| ((for (& 0)) (K 0))) ((for (& 0)) (((S (K (S (((K K) (* (& 0))) *)))) (K I)) (& 0))))",
     8),
    ("((| ((! (& 0)) 0)) ((for (& 0)) (K ((! (& ((for (& ((for (& 0)) (K 0)))) ((S (K *)) I))))"
     " 0))))", 5),
]


@pytest.mark.parametrize("text, fuel", FUEL_PINS)
def test_backinterp_fuel_boundary_is_pinned(text, fuel):
    c = parse_comb(text)
    assert backinterp(c, fuel) == backinterp(c)
    with pytest.raises(FuelExhausted):
        backinterp(c, fuel - 1)


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_alpha_small():
    rng = random.Random(32)
    for _ in range(120):
        p = rho.random_process(rng, 4)
        assert backinterp(interp(p)) == rho.canon_process(p)


def test_roundtrip_reduction_small():
    rng = random.Random(33)
    for _ in range(40):
        q = random_sorted_comb(rng, depth=3, expansions=2)
        target = interp(backinterp(q))
        trace = reduce(PRES, q, "all", 500, rules=NON_COMM_RULES, target=target)
        assert trace.status == "target_reached"


def test_roundtrip_idempotent_small():
    rng = random.Random(34)
    for _ in range(60):
        q = random_sorted_comb(rng, depth=3, expansions=2)
        image = interp(backinterp(q))
        assert interp(backinterp(image)) == image


# ---------------------------------------------------------------------------
# consequences of the single context resource


def test_guarded_rules_fire_only_at_top_level():
    # the context resource occurs exactly once, at the top, so the guarded
    # rules never match strictly inside a parallel component
    from skirho.core import find_redexes

    rng = random.Random(35)
    seen_any = False
    for _ in range(60):
        p = rho.random_comm_candidate(rng, 3)
        wrapped = canon(wrap_context(interp(p)))
        for redex in find_redexes(PRES, wrapped, rules=("xi", "epsilon")):
            assert redex.position == (), redex
            seen_any = True
    assert seen_any


def test_interp_output_is_translation_complete():
    rng = random.Random(36)
    for _ in range(100):
        image = interp(rho.random_process(rng, 3))
        assert not comb.contains_name_token(image)
        assert not comb.contains_constructor(image, C_DECL)


def test_elimination_sorts_over_corpus():
    # eliminating a name that is really used yields a name-to-process arrow
    rng = random.Random(37)
    checked = 0
    for _ in range(400):
        p = rho.random_process(rng, 3)
        stack = [p]
        while stack:
            q = stack.pop()
            if isinstance(q, Input):
                if rho.is_closed(q) and q.binder in rho.free_idents(q.body):
                    cont = interp(rho.canon_process(q)).children[1]
                    assert sort_infer(cont) == ArrowSort(N, W)
                    checked += 1
                stack.append(q.body)
            elif isinstance(q, Par):
                stack.extend((q.left, q.right))
            elif isinstance(q, Output):
                stack.append(q.body)
    assert checked > 20


def test_wrap_context_examples():
    assert wrap_context(z()) == aps(atom(PAR_DECL), atom(C_DECL), z())
    rng = random.Random(38)
    for _ in range(30):
        image = interp(rho.random_process(rng, 3))
        assert sort_infer(wrap_context(image)) == W
