"""Combinator presentation, translations, bracket abstraction, sorting."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skirho import comb, rho, ski
from skirho.comb import (
    AMP_DECL,
    APP_DECL,
    SORT_TABLE,
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
    SortScheme,
    SortVar,
    T,
    abstract_elim,
    ap,
    aps,
    atom,
    backinterp,
    canon,
    comb_presentation,
    interp,
    is_name_token,
    name_token,
    sort_infer,
    wrap_context,
)
from skirho.core import ConstructorDecl, FuelExhausted, instantiate, leaf, reduce, step, subterms
from skirho.rho import ZERO, Deref, Input, Output, Par, Quote, Var
from skirho.syntax import parse_comb, print_comb, print_rho

from gen import random_comm_candidate, random_process, random_sorted_comb

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
    assert not any(is_name_token(u) for u in subterms(eliminated))


def test_elim_rejects_a_name_token_under_a_non_application():
    with pytest.raises(TranslationError, match="^name token x under non-application R$"):
        abstract_elim("x", ski.R(name_token("x")))


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


class _RefVar:
    """A sort variable of the reference inference; arrows are pairs, told
    apart from every other sort by exact type."""

    def __init__(self, n):
        self.n, self.ref = n, None


def _ref_find(s):
    while isinstance(s, _RefVar) and s.ref is not None:
        s = s.ref
    return s


def _ref_occurs(v, s):
    s = _ref_find(s)
    return s is v or type(s) is tuple and (_ref_occurs(v, s[0]) or _ref_occurs(v, s[1]))


def _ref_unify(a, b):
    a, b = _ref_find(a), _ref_find(b)
    if a is b:
        return True
    if isinstance(a, _RefVar):
        if _ref_occurs(a, b):
            return False
        a.ref = b
        return True
    if isinstance(b, _RefVar):
        return _ref_unify(b, a)
    if type(a) is tuple and type(b) is tuple:
        return _ref_unify(a[0], b[0]) and _ref_unify(a[1], b[1])
    return False


def _ref_instance(s, fresh):
    if isinstance(s, SortVar):
        return fresh[s.name]
    if isinstance(s, ArrowSort):
        return _ref_instance(s.arg, fresh), _ref_instance(s.res, fresh)
    return s


def _ref_infer(u, counter):
    if is_name_token(u):
        return N
    if u.head == APP_DECL:
        fun = _ref_infer(u.children[0], counter)
        if fun is None:
            return None
        arg = _ref_infer(u.children[1], counter)
        if arg is None:
            return None
        res = _RefVar(next(counter))
        return res if _ref_unify(fun, (arg, res)) else None
    scheme = SORT_TABLE.get(u.head.name)
    if scheme is None:
        return None
    return _ref_instance(scheme.body, {q: _RefVar(next(counter)) for q in scheme.quantified})


def _ref_export(s):
    s = _ref_find(s)
    if type(s) is tuple:
        return ArrowSort(_ref_export(s[0]), _ref_export(s[1]))
    return SortVar(f"t{s.n}") if isinstance(s, _RefVar) else s


def _ref_sort(t):
    """Sort inference that unifies ``fun`` with ``(arg, res)`` at every
    application, res a fresh variable: the reference for `sort_infer`."""
    s = _ref_infer(t, itertools.count())
    return None if s is None else _ref_export(s)


_SORT_LEAVES = [atom(d) for d in (S_DECL, K_DECL, I_DECL, ZERO_DECL, C_DECL, AMP_DECL, STAR_DECL,
                                  BANG_DECL, FOR_DECL, PAR_DECL)] + [name_token("x"), name_token("y")]


@settings(max_examples=400, deadline=None)
@given(st.recursive(st.sampled_from(_SORT_LEAVES), lambda inner: st.tuples(inner, inner).map(lambda p: ap(*p)),
                    max_leaves=40))
def test_sort_infer_matches_the_reference_unifier(t):
    # exactly: the same sort or None, the same variable numbers
    want = _ref_sort(t)
    got = sort_infer(t)
    assert got == want and repr(got) == repr(want)


def test_sort_infer_unifies_variable_ranges_and_variable_function_sorts(monkeypatch):
    # no scheme of SORT_TABLE gives a term a bare variable sort; a fixpoint
    # combinator Y : (X => X) => X does: (Y I) has a variable range, and
    # ((Y I) K) applies a term whose sort is a variable
    x = SortVar("X")
    scheme = SortScheme(("X",), ArrowSort(ArrowSort(x, x), x))
    monkeypatch.setitem(SORT_TABLE, "Y", scheme)
    monkeypatch.setitem(comb._INSTANTIATORS, "Y", comb._instantiator(scheme))
    y = leaf(ConstructorDecl("Y", (), T))
    sortable = (ap(y, atom(I_DECL)), aps(y, atom(I_DECL), atom(K_DECL)),
                aps(y, atom(I_DECL), atom(ZERO_DECL), atom(K_DECL)))
    for t in sortable + (ap(y, atom(K_DECL)), aps(y, atom(K_DECL), atom(I_DECL))):
        want = _ref_sort(t)
        assert sort_infer(t) == want and repr(sort_infer(t)) == repr(want), t
        assert (want is not None) == (t in sortable), t


def test_interp_images_are_pinned():
    # sha256 of the 1,000 printed images, as computed when bracket
    # abstraction scanned every subterm for the token again
    rng = random.Random(1301)
    images = [print_comb(interp(random_process(rng, 4))) for _ in range(1000)]
    digest = hashlib.sha256("\n".join(images).encode()).hexdigest()
    assert digest == "19e168d79053b88adcf2716849dc650140c39be95abdf15662fa43e00e88f63c"


def test_sort_interp_is_process_sorted():
    rng = random.Random(31)
    for _ in range(100):
        p = random_process(rng, 3)
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


def test_backinterp_rejects_a_name_token():
    message = r"^combinator must be translation-complete \(no name tokens\)$"
    with pytest.raises(TranslationError, match=message):
        backinterp(ap(atom(STAR_DECL), name_token("x")))


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


# The back translation reads S/K/I spines without the rewriting engine where
# it can (`comb._skinormal`).  What it reads must be what a `first` run gives:
# the same normal form, the same steps charged, and FuelExhausted below them.


def _reads_like_first(c):
    """The `first` step count of c's S/K/I normal form, checked against
    `_skinormal` at every fuel up to one past it."""
    trace = reduce(PRES, c, "first", 10_000, rules=STRUCTURAL_RULES)
    assert trace.status == "normal_form"
    steps = len(trace.steps)
    for fuel in range(steps + 2):
        budget = [fuel]
        if fuel < steps:
            with pytest.raises(FuelExhausted):
                comb._skinormal(c, budget)
        else:
            assert comb._skinormal(c, budget) == trace.final
            assert budget == [fuel - steps]
    return steps


def _applied_continuations(c):
    """Each input continuation in c applied to a name token, as the back
    translation applies it, and to a quote, as a xi step applies it."""
    for u in subterms(c):
        fun = u.children[0] if u.head == APP_DECL else u
        if fun.head == APP_DECL and fun.children[0].head == FOR_DECL:
            yield ap(u.children[1], name_token("y0"))
            yield ap(u.children[1], quote(z()))


def test_skinormal_reads_like_first_over_sorted_combinators():
    rng = random.Random(36)
    total = 0
    for _ in range(120):
        q = random_sorted_comb(rng)
        total += _reads_like_first(q)
        for c in _applied_continuations(q):
            total += _reads_like_first(c)
    assert total > 0


def test_skinormal_reads_like_first_on_xi_successors():
    rng = random.Random(37)
    for _ in range(40):
        wrapped = canon(wrap_context(interp(random_comm_candidate(rng, 3))))
        for x in step(PRES, wrapped, rules=("xi",)):
            assert _reads_like_first(comb.unwrap_context(x)) > 0


@pytest.mark.parametrize("text, steps", [
    # K erases an argument that holds a redex: the redex is still contracted first
    ("((K 0) (((S K) K) 0))", 2),
    # S copies an argument that holds a redex: each copy is contracted
    ("(((S ((S (K |)) I)) I) (I 0))", 7),
    # the argument is normal, but the body the skeleton builds holds a redex,
    # which erases the I node's step: three steps, not the four nodes and redex
    ("(((S (K (K 0))) I) 0)", 3),
    # elements of a group, each an abstraction skeleton applied
    ("((| ((K 0) (& 0))) (((S (K (! (& 0)))) I) 0))", 4),
])
def test_skinormal_reads_like_first_where_a_redex_is_erased_copied_or_made(text, steps):
    c = parse_comb(text)
    assert sort_infer(c) == W
    assert _reads_like_first(c) == steps
    assert backinterp(c, steps) == backinterp(c)
    with pytest.raises(FuelExhausted):
        backinterp(c, steps - 1)


def test_backinterp_of_an_image_or_a_xi_successor_runs_no_engine(monkeypatch):
    # both are read by inverting bracket abstraction alone
    def engine(*args, **kwargs):
        raise AssertionError("the rewriting engine ran")

    rng = random.Random(38)
    procs = [random_process(rng, 4) for _ in range(60)]
    images = [interp(p) for p in procs]
    comms = [random_comm_candidate(rng, 3) for _ in range(30)]
    inners = [comb.unwrap_context(x) for p in comms
              for x in step(PRES, canon(wrap_context(interp(p))), rules=("xi",))]
    reducts = {q for p in comms for q in rho.comm_step(p)}
    monkeypatch.setattr(comb, "reduce", engine)
    for p, c in zip(procs, images):
        assert backinterp(c) == rho.canon_process(p)
    assert inners and all(backinterp(c) in reducts for c in inners)


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_alpha_small():
    rng = random.Random(32)
    for _ in range(120):
        p = random_process(rng, 4)
        assert backinterp(interp(p)) == rho.canon_process(p)


def test_roundtrip_is_the_canonical_form():
    # names are syntactic sugar: translating a closed process there and back
    # gives its canonical form itself, not merely a congruent process
    rng = random.Random(3)
    procs = [random_process(rng, 4) for _ in range(600)]
    procs += [random_comm_candidate(rng, 3) for _ in range(600)]
    for p in procs:
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
        p = random_comm_candidate(rng, 3)
        wrapped = canon(wrap_context(interp(p)))
        for redex in find_redexes(PRES, wrapped, rules=("xi", "epsilon")):
            assert redex.position == (), redex
            seen_any = True
    assert seen_any


def test_interp_output_is_translation_complete():
    rng = random.Random(36)
    for _ in range(100):
        image = interp(random_process(rng, 3))
        assert not any(is_name_token(u) or u.head == C_DECL for u in subterms(image))


def test_elimination_sorts_over_corpus():
    # eliminating a name that is really used yields a name-to-process arrow
    rng = random.Random(37)
    checked = 0
    for _ in range(400):
        p = random_process(rng, 3)
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
        image = interp(random_process(rng, 3))
        assert sort_infer(wrap_context(image)) == W
