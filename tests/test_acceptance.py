"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is property- and instance-based and finishes on a
laptop in a few minutes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from skirho import comb, rho, ski
from skirho.bisim import faithfulness_check, names_occurring
from skirho.comb import (
    NON_COMM_RULES,
    STRUCTURAL_RULES,
    W,
    ap,
    aps,
    atom,
    backinterp,
    canon as comb_canon,
    comb_presentation,
    interp,
    name_token,
    sort_infer,
    wrap_context,
)
from skirho.core import canonicalize, instantiate, reduce, step
from skirho.ski import (
    gas_trace,
    marker_count,
    ski_presentation,
    strip_marker,
    whnf_oracle,
    whnf_run,
    wrap_markers,
)
from skirho.syntax import parse_rho

from gen import random_comm_candidate, random_process, random_ski_term, random_sorted_comb
from naive import enumerate_ski_terms, naive_ski_step

PLAIN = ski_presentation("plain")
GAS = ski_presentation("gas")
COMB = comb_presentation()

ORACLE_FUEL = 200


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def whnf_corpus():
    """Seeded R-free terms whose head normal form the oracle reaches."""
    rng = random.Random(2024)
    corpus = []
    while len(corpus) < 500:
        t = random_ski_term(rng.randint(1, 12), rng)
        t_prime = whnf_oracle(t, fuel=ORACLE_FUEL)
        if t_prime is not None:
            corpus.append((t, t_prime))
    return corpus


@pytest.fixture(scope="module")
def process_corpus():
    rng = random.Random(7177)
    return [random_process(rng, 4) for _ in range(300)]


def test_criterion_1_ski_oracle_equivalence():
    total = 0
    for leaves in range(1, 8):
        for t in enumerate_ski_terms(leaves):
            if step(PLAIN, t) != naive_ski_step(t):
                report(1, "ski oracle equivalence", False, f"mismatch at {t}")
            total += 1
    report(1, "ski oracle equivalence", True, f"{total} terms, exact")


def test_criterion_2_marked_head_reduction(whnf_corpus):
    for t, t_prime in whnf_corpus:
        trace = whnf_run(t, fuel=ORACLE_FUEL)
        if trace.status != "normal_form" or strip_marker(trace.final) != t_prime:
            report(2, "marked reduction reaches head normal form", False, f"at {t}")
    report(2, "marked reduction reaches head normal form", True,
           f"{len(whnf_corpus)} convergent terms, exact")


def test_criterion_3_gas_runs(whnf_corpus):
    runs = 0
    for t, t_prime in whnf_corpus:
        m = len(whnf_run(t, fuel=ORACLE_FUEL).steps)
        for n in (m, m + 1, m + 3):
            trace = gas_trace(t, n)
            expected = canonicalize(GAS, wrap_markers(t_prime, n - m))
            ok = (trace.status == "normal_form"
                  and len(trace.steps) == m
                  and trace.final == expected
                  and all(marker_count(term) + i == n
                          for i, (_, term) in enumerate(trace.steps, start=1)))
            if not ok:
                report(3, "gas runs consume one marker per step", False,
                       f"at {t} with n={n}")
            runs += 1
    report(3, "gas runs consume one marker per step", True, f"{runs} runs, exact")


def test_criterion_4_abstraction_elimination_derivations():
    z = atom(comb.ZERO_DECL)
    p_elim = ap(atom(comb.K_DECL), z)        # elimination of an absent name
    q_elim = ap(atom(comb.K_DECL), z)
    qy_elim = ap(atom(comb.K_DECL), z)
    qyx_elim = ap(atom(comb.K_DECL), qy_elim)
    x = name_token("x")
    s, k, i = atom(comb.S_DECL), atom(comb.K_DECL), atom(comb.I_DECL)
    por, bang, amp, star, fr = (atom(comb.PAR_DECL), atom(comb.BANG_DECL),
                                atom(comb.AMP_DECL), atom(comb.STAR_DECL),
                                atom(comb.FOR_DECL))
    derivations = [
        (ap(ap(k, z), x), z),
        (ap(aps(s, aps(s, ap(k, fr), aps(s, ap(k, amp), p_elim)), qyx_elim), x),
         aps(fr, ap(amp, z), qy_elim)),
        (ap(aps(s, aps(s, ap(k, bang), aps(s, ap(k, amp), p_elim)), q_elim), x),
         aps(bang, ap(amp, z), z)),
        (ap(aps(s, aps(s, ap(k, por), p_elim), q_elim), x),
         aps(por, z, z)),
        (ap(aps(s, ap(k, star), i), x), ap(star, x)),
        (ap(aps(s, ap(k, star), aps(s, ap(k, amp), p_elim)), x),
         ap(star, ap(amp, z))),
    ]
    passed = 0
    for idx, (term, want) in enumerate(derivations, start=1):
        trace = reduce(COMB, term, "all", 50, rules=STRUCTURAL_RULES, target=want)
        if trace.status != "target_reached":
            report(4, "abstraction elimination derivations", False, f"derivation {idx}")
        passed += 1
    report(4, "abstraction elimination derivations", True, f"{passed}/6")


def test_criterion_5_translation_roundtrips(process_corpus):
    for p in process_corpus:
        back = backinterp(interp(p))
        if back != rho.canon_process(p):
            report(5, "translation round trips", False, f"(i) fails at {p}")
    rng = random.Random(4035)
    combinators = [random_sorted_comb(rng, depth=3, expansions=3) for _ in range(100)]
    for q in combinators:
        target = interp(backinterp(q))
        trace = reduce(COMB, q, "all", 500, rules=NON_COMM_RULES, target=target)
        if trace.status != "target_reached":
            report(5, "translation round trips", False, f"(ii) fails at {q}")
        if interp(backinterp(target)) != target:
            report(5, "translation round trips", False, f"(iii) fails at {q}")
    report(5, "translation round trips", True,
           f"{len(process_corpus)} processes, {len(combinators)} combinators, exact")


def test_criterion_6_sorting_discipline(process_corpus):
    for p in process_corpus:
        if sort_infer(interp(p)) != W:
            report(6, "sorting discipline", False, f"interp not W-sorted at {p}")
    z = atom(comb.ZERO_DECL)
    instantiations = {
        "sigma": {"P": ap(atom(comb.K_DECL), ap(atom(comb.K_DECL), z)),
                  "Q": ap(atom(comb.K_DECL), z), "R": z},
        "kappa": {"P": z, "Q": z},
        "iota": {"P": z},
        "xi": {"P": z, "Q": ap(atom(comb.K_DECL), z), "R": z},
        "epsilon": {"P": z},
    }
    for rule in COMB.rules:
        binding = instantiations[rule.name]
        if sort_infer(instantiate(rule.lhs, binding)) != W:
            report(6, "sorting discipline", False, f"{rule.name} lhs not W")
        if sort_infer(instantiate(rule.rhs, binding)) != W:
            report(6, "sorting discipline", False, f"{rule.name} rhs not W")
    report(6, "sorting discipline", True,
           f"{len(process_corpus)} interpretations and 5 rules, exact")


FAITHFULNESS_PAIRS = [
    # bisimilar pairs built by congruence
    ("0", "0"),
    ("0 | 0", "0"),
    ("&0!0", "&0!0 | 0"),
    ("&0!0 | for(y <- &0)0", "for(y <- &0)0 | &0!0"),
    ("for(y <- &0)*y", "for(z <- &0)*z"),
    ("for(y <- &(0|0))0", "for(y <- &0)0"),
    ("&*&0!0", "&0!0"),
    ("&0!(0 | 0)", "&0!0"),
    ("(&0!0 | 0) | *&0", "&0!0 | (*&0 | 0)"),
    ("for(y <- &0)(*y | 0)", "for(w <- &0)*w"),
    # bisimilar pairs built by administrative (evaluation) reduction
    ("*&0", "0"),
    ("*&(0|0) | 0", "*&0"),
    # distinguished pairs differing in a barb
    ("&0!0", "0"),
    ("0", "&0!0"),
    ("&0!0", "&(&0!0)!0"),
    ("&0!0 | &(&0!0)!0", "&0!0"),
    ("for(y <- &0)0 | &0!0", "0"),
    ("for(y <- &0)0 | &0!0", "for(y <- &0)0"),
    ("&0!(&(&0!0)!0)", "0"),
    ("&0!0 | &0!0", "for(y <- &0)0"),
]


def test_criterion_7_faithfulness_instances():
    agreed = 0
    for idx, (left_text, right_text) in enumerate(FAITHFULNESS_PAIRS, start=1):
        left, right = parse_rho(left_text), parse_rho(right_text)
        names = names_occurring(left)
        names += [n for n in names_occurring(right) if n not in names]
        result = faithfulness_check(left, right, names, 4)
        if result.inconclusive or not result.agree:
            report(7, "faithfulness instances", False,
                   f"pair {idx}: {left_text!r} vs {right_text!r}")
        agreed += 1
    report(7, "faithfulness instances", True, f"{agreed}/20 agree at depth 4")


def test_criterion_8_communication_correspondence():
    rng = random.Random(909)
    pres = COMB
    checked_processes = 0
    path_checked = 0
    while checked_processes < 100:
        p = random_comm_candidate(rng, 3)
        successors = rho.comm_step(p)
        if not successors:
            continue
        checked_processes += 1
        wrapped = comb_canon(wrap_context(interp(p)))
        xi_results = step(pres, wrapped, rules=("xi",))
        translated = set()
        for x in xi_results:
            inner = comb.unwrap_context(x)
            if inner is None:
                report(8, "communication correspondence", False,
                       "context resource lost after communication")
            translated.add(backinterp(inner))
        missing = successors - translated
        if missing:
            report(8, "communication correspondence", False,
                   f"unmatched reduct {missing} of {p}")
        # spot-check genuine reduction paths: after the single communication,
        # the remaining distance is covered by the non-communication rules
        if checked_processes % 10 == 0:
            target_proc = sorted(successors, key=rho.process_key)[0]
            goal = comb_canon(wrap_context(interp(target_proc)))
            reachable = any(
                reduce(pres, x, "all", 60, rules=NON_COMM_RULES, target=goal).status
                == "target_reached"
                for x in xi_results
            )
            if not reachable:
                report(8, "communication correspondence", False,
                       f"no administrative path at {p}")
            path_checked += 1
    report(8, "communication correspondence", True,
           f"100 processes, {path_checked} full paths, exact")


def test_criterion_9_cli_determinism():
    invocations = [
        ["reduce", "--calculus", "rho", "--format", "json", "--strategy", "random",
         "--seed", "11", "for(y <- &0)(y!0) | &0!0 | for(w <- &0)*w"],
        ["reduce", "--calculus", "ski", "--format", "json", "--strategy", "random",
         "--seed", "4", "((I (I K)) ((S K) K))"],
        ["reduce", "--calculus", "rho-comb", "--format", "json",
         "((| C) ((| ((for (& 0)) (K 0))) ((! (& 0)) 0)))"],
    ]
    for argv in invocations:
        cmd = [sys.executable, "-m", "skirho.cli"] + argv
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        if not (first.returncode == second.returncode == 0
                and first.stdout == second.stdout):
            report(9, "command line determinism", False, f"at {' '.join(argv)}")
        json.loads(first.stdout)
    report(9, "command line determinism", True, "byte-identical JSON across runs")
