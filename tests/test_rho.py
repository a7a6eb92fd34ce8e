"""Process calculus: free names, congruence, name equivalence, substitution,
communication."""

from __future__ import annotations

import gc
import random

from skirho import comb, rho
from skirho.cli import trace_to_json
from skirho.core import Trace
from skirho.rho import (
    ZERO,
    Deref,
    Input,
    Output,
    Par,
    Quote,
    Var,
    all_names,
    canon_name,
    canon_process,
    comm_step,
    free_idents,
    free_names,
    is_closed,
    name_equiv,
    par_of,
    random_process,
    rho_reduce,
    struct_congruent,
    subst_semantic,
    subst_syntactic,
)

N0 = Quote(ZERO)


def out0():
    return Output(N0, ZERO)


# ---------------------------------------------------------------------------
# free names


def test_fn_stopped():
    assert free_names(ZERO) == frozenset()


def test_fn_output():
    assert free_names(out0()) == frozenset({N0})


def test_fn_input_removes_binder():
    p = Input(N0, "y", Deref(Var("y")))
    assert free_names(p) == frozenset({N0})


def test_fn_par_union():
    p = Par(out0(), Deref(Quote(Output(N0, ZERO))))
    assert free_names(p) == {N0, Quote(Output(N0, ZERO))}


def test_fn_counts_quoted_deref_chain_as_binder():
    p = Input(N0, "y", Output(Quote(Deref(Var("y"))), ZERO))
    assert free_names(p) == frozenset({N0})
    assert is_closed(p)


# ---------------------------------------------------------------------------
# canonical forms


def test_canon_unit():
    assert canon_process(Par(ZERO, ZERO)) == ZERO


def test_canon_associate_commute():
    a, b, c = out0(), Deref(N0), Input(N0, "w", ZERO)
    left = Par(Par(a, b), c)
    right = Par(a, Par(b, c))
    assert canon_process(left) == canon_process(right)
    assert struct_congruent(Par(a, b), Par(b, a))


def test_canon_alpha():
    p = Input(N0, "y", Deref(Var("y")))
    q = Input(N0, "z", Deref(Var("z")))
    assert canon_process(p) == canon_process(q)


def test_canon_idempotent_random():
    rng = random.Random(20)
    for _ in range(300):
        p = random_process(rng, 4)
        cp = canon_process(p)
        assert canon_process(cp) == cp


def test_canon_congruence_closed_under_constructors():
    rng = random.Random(21)
    for _ in range(60):
        p, q = random_process(rng, 3), random_process(rng, 3)
        r = random_process(rng, 2)
        if not struct_congruent(p, q):
            continue
        assert struct_congruent(Par(p, r), Par(q, r))
        assert struct_congruent(Output(N0, p), Output(N0, q))
        assert struct_congruent(Input(N0, "y", p), Input(N0, "y", q))
        assert struct_congruent(Deref(Quote(p)), Deref(Quote(q)))


# ---------------------------------------------------------------------------
# name equivalence


def test_name_equiv_quote_deref_collapse():
    assert name_equiv(Quote(Deref(N0)), N0)


def test_name_equiv_congruent_quotes():
    assert name_equiv(Quote(Par(ZERO, ZERO)), N0)


def test_name_equiv_distinct():
    assert not name_equiv(N0, Quote(out0()))


def test_name_equiv_inference_rules_random():
    rng = random.Random(22)
    for _ in range(150):
        p = random_process(rng, 3)
        # quote of dereference collapses
        assert name_equiv(Quote(Deref(Quote(p))), Quote(p))
        # congruent processes, equivalent quotes
        padded = Par(ZERO, p)
        assert struct_congruent(p, padded)
        assert name_equiv(Quote(p), Quote(padded))


# ---------------------------------------------------------------------------
# substitution


def test_subst_stopped():
    assert subst_syntactic(ZERO, N0, Quote(out0())) == ZERO


def test_subst_deref_equivalent_to_new_name():
    # the dereferenced name is already equivalent to the incoming name
    d = Deref(Quote(Par(ZERO, ZERO)))
    got = subst_syntactic(d, N0, Quote(out0()))
    assert got == Deref(N0)
    assert subst_semantic(d, N0, Quote(out0())) == ZERO


def test_subst_deref_other_name_unchanged():
    d = Deref(Quote(out0()))
    assert subst_semantic(d, N0, Quote(Deref(N0))) == d


def test_subst_at_subject():
    old = Quote(out0())
    p = Output(old, ZERO)
    assert subst_syntactic(p, N0, old) == Output(N0, ZERO)


def test_subst_binder_occurrences():
    body = Par(Output(Var("y"), ZERO), Deref(Var("y")))
    got = subst_syntactic(body, N0, Var("y"))
    assert got == Par(Output(N0, ZERO), Deref(N0))
    sem = subst_semantic(body, N0, Var("y"))
    assert sem == Par(Output(N0, ZERO), ZERO)


def test_subst_input_clause_freshens_binder(monkeypatch):
    recorded = []
    original = rho._fresh_binder

    def spy(body, new, old, quoted):
        z = original(body, new, old, quoted)
        recorded.append((body, new, old, quoted, z))
        return z

    monkeypatch.setattr(rho, "_fresh_binder", spy)
    rng = random.Random(23)
    applications = 0
    for _ in range(120):
        p = random_process(rng, 4)
        q = random_process(rng, 2)
        subst_syntactic(p, Quote(q), N0)
    for body, new, old, quoted, z in recorded:
        applications += 1
        zn = Var(z)
        assert not name_equiv(zn, new)
        assert not name_equiv(zn, old)
        if quoted is not None:
            for fn in free_names(quoted):
                assert not name_equiv(zn, fn)
        assert zn not in all_names(body)
    assert applications > 0


def test_subst_never_captures():
    # substituting a process that mentions the very identifier a binder uses
    p = Input(N0, "z0", Output(Var("z0"), ZERO))
    new = Quote(Input(N0, "z0", ZERO))
    got = subst_syntactic(p, new, N0)
    # subject was substituted, binder occurrences still line up
    assert isinstance(got, Input)
    assert got.subject == new
    assert free_names(got) == {canon_name(new)}


# ---------------------------------------------------------------------------
# communication


def test_comm_example():
    p = Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())
    assert comm_step(p) == {out0()}


def test_comm_stopped():
    assert comm_step(ZERO) == set()


def test_comm_subjects_equivalent_modulo_congruence():
    p = Par(Input(Quote(Par(ZERO, ZERO)), "y", ZERO), out0())
    assert comm_step(p) == {ZERO}


def test_comm_identical_receivers_merge():
    # both receivers may fire, but the reducts are alpha-equivalent, so the
    # canonical successor set is a singleton
    p = par_of([Input(N0, "y", ZERO), Input(N0, "z", ZERO), out0()])
    assert comm_step(p) == {canon_process(Input(N0, "y", ZERO))}


def test_comm_distinct_receivers_two_successors():
    p = par_of([Input(N0, "y", ZERO), Input(N0, "z", Deref(Var("z"))), out0()])
    got = comm_step(p)
    assert got == {
        canon_process(Input(N0, "z", Deref(Var("z")))),
        canon_process(Par(Input(N0, "y", ZERO), Deref(N0))),
    }


def test_comm_invariant_under_canonicalization():
    rng = random.Random(24)
    for _ in range(120):
        p = rho.random_comm_candidate(rng, 3)
        assert comm_step(p) == comm_step(canon_process(p))


def test_comm_substitutes_quoted_deref_chain_subject():
    # the receiver listens on the binder through a collapsing quote
    body = Output(Quote(Deref(Var("y"))), ZERO)
    p = Par(Input(N0, "y", body), Output(N0, out0()))
    (successor,) = comm_step(p)
    assert successor == canon_process(Output(Quote(out0()), ZERO))


# ---------------------------------------------------------------------------
# reduction driver


def test_rho_reduce_normal_form():
    trace = rho_reduce(out0(), "first", 5)
    assert trace.status == "normal_form"
    assert trace.steps == []


def test_rho_reduce_single_step():
    p = Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())
    trace = rho_reduce(p, "first", 5)
    assert trace.status == "normal_form"
    assert [s for _, s in trace.steps] == [out0()]


def test_rho_reduce_all_finds_shortest():
    p = par_of([Input(N0, "y", ZERO), out0(), out0()])
    trace = rho_reduce(p, "all", 5)
    assert trace.status == "normal_form"
    assert len(trace.steps) == 1


def test_rho_reduce_zero_fuel():
    p = Par(Input(N0, "y", ZERO), out0())
    trace = rho_reduce(p, "first", 0)
    assert trace.status == "fuel_exhausted"


def test_rho_trace_is_core_trace():
    p = Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())
    for strategy in ("first", "all", "random"):
        trace = rho_reduce(p, strategy, 5, seed=1)
        assert isinstance(trace, Trace)
        assert trace_to_json("rho", trace)["steps"] == [
            {"rule": "comm", "position": [], "result": "&0!0"}]


def test_random_process_closed():
    rng = random.Random(25)
    for _ in range(200):
        assert is_closed(random_process(rng, 4))


def test_free_idents_sees_dangling_var():
    assert free_idents(Deref(Var("y"))) == {"y"}
    assert free_idents(Output(Quote(Output(Var("y"), ZERO)), ZERO)) == {"y"}


def _cycles_left(f, inputs) -> int:
    """What the cyclic collector finds after f ran on every input, with gc off."""
    f(inputs[0])  # build what is built once, on first use
    gc.collect()
    gc.disable()
    try:
        for x in inputs:
            f(x)
        return gc.collect()
    finally:
        gc.enable()


def test_canonical_forms_communication_and_translation_leave_no_reference_cycles():
    rng = random.Random(56)
    procs = [rho.random_comm_candidate(rng) for _ in range(50)]
    assert _cycles_left(canon_process, procs) == 0
    assert _cycles_left(comm_step, procs) == 0
    assert _cycles_left(lambda p: comb.backinterp(comb.interp(p)), procs) == 0
