"""Process calculus: closedness, congruence, name equivalence, communication."""

from __future__ import annotations

import gc
import hashlib
import random

from skirho import comb, rho
from skirho.calculus import CALCULI
from skirho.cli import trace_to_json
from skirho.core import Trace, drive
from skirho.rho import (
    ZERO,
    Deref,
    Input,
    Output,
    Par,
    Quote,
    Var,
    canon_name,
    canon_process,
    comm_step,
    free_idents,
    is_closed,
    par_of,
    process_key,
)
from skirho.syntax import parse_rho, print_rho

from gen import random_comm_candidate, random_process, rebuilt

N0 = Quote(ZERO)


def out0():
    return Output(N0, ZERO)


# ---------------------------------------------------------------------------
# closedness


def test_fn_counts_quoted_deref_chain_as_binder():
    p = Input(N0, "y", Output(Quote(Deref(Var("y"))), ZERO))
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
    assert canon_process(Par(a, b)) == canon_process(Par(b, a))


def test_canon_alpha():
    p = Input(N0, "y", Deref(Var("y")))
    q = Input(N0, "z", Deref(Var("z")))
    assert canon_process(p) == canon_process(q)


def test_canon_idempotent_random():
    rng = random.Random(20)
    for _ in range(300):
        p = random_process(rng, 4)
        cp = canon_process(p)
        assert canon_process(rebuilt(cp)) == cp  # a fresh copy: cp itself is marked canonical


def test_canon_congruence_closed_under_constructors():
    rng = random.Random(21)
    for _ in range(60):
        p, q = random_process(rng, 3), random_process(rng, 3)
        r = random_process(rng, 2)
        if canon_process(p) != canon_process(q):
            continue
        assert canon_process(Par(p, r)) == canon_process(Par(q, r))
        assert canon_process(Output(N0, p)) == canon_process(Output(N0, q))
        assert canon_process(Input(N0, "y", p)) == canon_process(Input(N0, "y", q))
        assert canon_process(Deref(Quote(p))) == canon_process(Deref(Quote(q)))


def test_canon_binder_tokens_stay_distinct_next_to_free_v_identifiers():
    # free identifiers named like tokens push the binders of both depths up;
    # they must still get one token each, or the two processes would merge
    p = parse_rho("for(a <- &0)for(b <- a)(b!0 | a!0) | v0!0 | v1!0")
    q = parse_rho("for(a <- &0)for(b <- a)(b!0 | b!0) | v0!0 | v1!0")
    assert canon_process(p) != canon_process(q)
    assert canon_process(p) == canon_process(
        parse_rho("v1!0 | for(x <- &0)for(y <- x)(x!0 | y!0) | v0!0"))


# ---------------------------------------------------------------------------
# name equivalence


def test_name_equiv_quote_deref_collapse():
    assert canon_name(Quote(Deref(N0))) == canon_name(N0)


def test_name_equiv_congruent_quotes():
    assert canon_name(Quote(Par(ZERO, ZERO))) == canon_name(N0)


def test_name_equiv_distinct():
    assert canon_name(N0) != canon_name(Quote(out0()))


def test_name_equiv_inference_rules_random():
    rng = random.Random(22)
    for _ in range(150):
        p = random_process(rng, 3)
        # quote of dereference collapses
        assert canon_name(Quote(Deref(Quote(p)))) == canon_name(Quote(p))
        # congruent processes, equivalent quotes
        padded = Par(ZERO, p)
        assert canon_process(p) == canon_process(padded)
        assert canon_name(Quote(p)) == canon_name(Quote(padded))


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
        p = random_comm_candidate(rng, 3)
        assert comm_step(p) == comm_step(rebuilt(canon_process(p)))


def test_comm_substitutes_quoted_deref_chain_subject():
    # the receiver listens on the binder through a collapsing quote
    body = Output(Quote(Deref(Var("y"))), ZERO)
    p = Par(Input(N0, "y", body), Output(N0, out0()))
    (successor,) = comm_step(p)
    assert successor == canon_process(Output(Quote(out0()), ZERO))


def test_subst_binder_occurrences():
    # the binder as an output subject, under a dereference, as an input subject
    p = parse_rho("for(y <- &0)(y!0 | *y | for(z <- y)*z) | &0!(&0!0)")
    want = parse_rho("&(&0!0)!0 | *&(&0!0) | for(z <- &(&0!0))*z")
    assert comm_step(p) == {canon_process(want)}


def test_subst_never_captures():
    # the message binds z0, as the continuation's inner input does; canonically
    # the message binds v0, the token of the continuation's own binder
    p = Par(Input(N0, "y", Input(N0, "z0", Par(Output(Var("z0"), ZERO), Output(Var("y"), ZERO)))),
            Output(N0, Input(N0, "z0", Output(Var("z0"), ZERO))))
    (successor,) = comm_step(p)
    message = Quote(Input(N0, "w", Output(Var("w"), ZERO)))
    assert successor == canon_process(Input(N0, "x", Par(Output(Var("x"), ZERO), Output(message, ZERO))))
    assert is_closed(successor)


def test_comm_does_not_plug_inside_quotes():
    # the quoted input reuses the outer binder's token in a scope of its own;
    # a dereference of another name stays as it is
    p = parse_rho("for(y <- &0)(&(for(w <- &0)w!0)!0 | *&(&0!0) | y!0) | &0!0")
    want = parse_rho("&(for(w <- &0)w!0)!0 | *&(&0!0) | &0!0")
    assert comm_step(p) == {canon_process(want)}


def test_comm_with_free_v_identifiers_keeps_the_binders_apart():
    # canonically both binders would be v2 if tokens could collide, and the
    # inner one would shadow the outer one's occurrence v1!0
    p = parse_rho("for(v1 <- &0)(for(v0 <- v1)(v0!0 | v1!0)) | &0!(*v0) | *v1")
    assert comm_step(p) == {canon_process(parse_rho("for(y <- v0)(y!0 | v0!0) | *v1"))}


def test_comm_reduct_avoids_only_its_own_free_identifiers():
    # v0 is free in the process but not in the reduct, so the reduct's
    # binder takes v0 again
    p = parse_rho("for(y <- v0)for(z <- &0)z!0 | v0!0")
    assert comm_step(p) == {parse_rho("for(v0 <- &0)v0!0")}


def _comm_cases():
    """Seeded communication candidates, every second one open in v0 and v1."""
    rng = random.Random(1302)
    return [random_comm_candidate(rng, 4, ("v0", "v1") if i % 2 else ()) for i in range(1000)]


def test_comm_reducts_are_canonical():
    for p in _comm_cases():
        for q in comm_step(p):
            assert canon_process(rebuilt(q)) == q, (p, q)


def test_comm_reducts_are_pinned():
    # sha256 of each process with its sorted, printed reducts, as computed
    # when every reduct was plugged first and canonicalized afterwards
    cases = _comm_cases()
    assert sum(not is_closed(p) for p in cases) > 300
    lines = [print_rho(p) + " => " + " ; ".join(sorted(print_rho(q) for q in comm_step(p)))
             for p in cases]
    assert sum(line.count(" ; ") + 1 for line in lines) == 1238
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9a44a2ec4b8646e46d6bce2ee0f064e40ad41bb713ea1f464f9ab13cd10b84ba"


# ---------------------------------------------------------------------------
# what a node keeps


def _kept_cases():
    """Seeded closed processes, communication candidates, every second one
    open in v0 and v1, and the input that reuses each one as its body."""
    rng = random.Random(1901)
    cases = [random_process(rng, 4) for _ in range(150)]
    cases += [random_comm_candidate(rng, 4, ("v0", "v1") if i % 2 else ()) for i in range(150)]
    return cases + [Input(N0, "v0", p) for p in cases]


def test_kept_canonical_forms_keys_free_identifiers_and_reducts_match_a_fresh_copy():
    for p in _kept_cases():
        c = canon_process(p)
        assert c == canon_process(rebuilt(p)), p
        assert canon_process(p) is c and canon_process(c) is c
        assert free_idents(p) == free_idents(rebuilt(p)) == free_idents(c)
        assert is_closed(p) == is_closed(rebuilt(p))
        assert process_key(p) == process_key(rebuilt(p)) and process_key(c) == process_key(rebuilt(c))
        reducts = comm_step(p)
        assert reducts == comm_step(rebuilt(p)), p
        for q in reducts | {c}:
            assert canon_process(q) is q and canon_process(rebuilt(q)) == q, (p, q)


def test_kept_canonical_names_match_a_fresh_copy():
    rng = random.Random(1902)
    for _ in range(200):
        n = Quote(random_comm_candidate(rng, 3))
        for m in (n, Quote(Deref(n)), Quote(Par(ZERO, Deref(n)))):
            assert canon_name(m) == canon_name(rebuilt(m)) == Quote(canon_process(n.process))
            assert free_idents(m) == free_idents(rebuilt(m)) == frozenset()


# ---------------------------------------------------------------------------
# reduction driver


def rho_drive(p, strategy, fuel, seed=None):
    calc = CALCULI["rho"]
    return drive(calc.canon(p), calc.edges, strategy, fuel, seed=seed)


def test_rho_reduce_normal_form():
    trace = rho_drive(out0(), "first", 5)
    assert trace.status == "normal_form"
    assert trace.steps == []


def test_rho_reduce_single_step():
    p = Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())
    trace = rho_drive(p, "first", 5)
    assert trace.status == "normal_form"
    assert [s for _, s in trace.steps] == [out0()]


def test_rho_reduce_all_finds_shortest():
    p = par_of([Input(N0, "y", ZERO), out0(), out0()])
    trace = rho_drive(p, "all", 5)
    assert trace.status == "normal_form"
    assert len(trace.steps) == 1


def test_rho_reduce_zero_fuel():
    p = Par(Input(N0, "y", ZERO), out0())
    trace = rho_drive(p, "first", 0)
    assert trace.status == "fuel_exhausted"


def test_rho_trace_is_core_trace():
    p = Par(Input(N0, "y", Output(Var("y"), ZERO)), out0())
    for strategy in ("first", "all", "random"):
        trace = rho_drive(p, strategy, 5, seed=1)
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
    procs = [random_comm_candidate(rng) for _ in range(50)]
    assert _cycles_left(canon_process, procs) == 0
    assert _cycles_left(comm_step, procs) == 0
    assert _cycles_left(lambda p: comb.backinterp(comb.interp(p)), procs) == 0
