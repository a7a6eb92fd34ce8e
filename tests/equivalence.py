"""Print one sha256 over seeded outputs of every calculus and subcommand.

Usage, from the root of a checkout:

    python3 tests/equivalence.py [N]

With N seeded inputs per section (default 40), it collects, as text:

* ``traces``: the redex list of each input, with every successor, and a
  ``first``, ``random`` and ``all`` trace from it, in all five calculi;
* ``translation``: ``interp`` of processes, ``backinterp`` of their images
  and of sorted combinators with the least fuel that suffices, and
  ``sort_infer`` of both and of unsortable junk;
* ``bisim``: ``bounded_bisim`` verdicts on both sides of the translation,
  with every level of the witness as text;
* ``cli``: the stdout and exit code of each subcommand, run in process.

It prints the line count and digest of each section and one digest over all
of them.  Two checkouts that print the same digest for the same N agree on
all of these outputs, so a change meant to keep behaviour is checked by
running this on its parent and on itself.  `tests/test_equivalence.py`
pins the digest at N = 40, so a change of behaviour fails the suite until
the pin is updated with the outputs that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from skirho import bisim, cli, comb, rho, ski  # noqa: E402
from skirho.calculus import CALCULI  # noqa: E402
from skirho.core import FuelExhausted, drive  # noqa: E402
from skirho.syntax import print_comb, print_rho, print_ski  # noqa: E402

from gen import random_comm_candidate, random_process, random_ski_term, random_sorted_comb  # noqa: E402


def _redex(calc, r) -> str:
    binding = ",".join(f"{k}={calc.print(v)}" for k, v in sorted(r.binding.items()))
    rest = None if r.rest is None else calc.print(r.rest)
    return f"{r.rule}@{r.position} [{binding}] {r.peel} {rest}"


def _trace_lines(name: str, t, seed: int) -> list[str]:
    calc = CALCULI[name]
    t = calc.canon(t)
    lines = [f"{name} {calc.print(t)}"]
    lines += [f"  {_redex(calc, r)} -> {calc.print(u)}" for r, u in calc.edges(t)]
    for strategy, fuel in (("first", 12), ("random", 12), ("all", 4)):
        trace = drive(t, calc.edges, strategy, fuel, seed=seed, state_budget=300)
        lines.append(f"  {strategy} {trace.status} " + " ".join(
            f"{_redex(calc, r)} -> {calc.print(u)}" for r, u in trace.steps))
    return lines


def traces(n: int) -> list[str]:
    rng = random.Random(101)
    lines = []
    for i in range(n):
        t = random_ski_term(rng.randint(1, 14), rng)
        lines += _trace_lines("ski", t, i)
        lines += _trace_lines("ski-whnf", ski.R(t), i)
        lines += _trace_lines("ski-gas", CALCULI["ski-gas"].gas(t, rng.randint(0, 6)), i)
        p = random_comm_candidate(rng, 3)
        lines += _trace_lines("rho", p, i)
        lines += _trace_lines("rho-comb", comb.wrap_context(comb.interp(p)), i)
        lines += _trace_lines("rho-comb", comb.wrap_context(random_sorted_comb(rng, 2, 2)), i)
    return lines


def _least_fuel(c) -> str:
    """The back translation of c with the least fuel that suffices, or why none does."""
    try:
        back = comb.backinterp(c, comb.DEFAULT_FUEL)
    except (FuelExhausted, comb.TranslationError) as err:
        return f"{type(err).__name__}: {err}"
    low, high = 0, comb.DEFAULT_FUEL  # high suffices
    while low < high:
        mid = (low + high) // 2
        try:
            comb.backinterp(c, mid)
            high = mid
        except FuelExhausted:
            low = mid + 1
    return f"fuel {high}: {print_rho(back)}"


def translation(n: int) -> list[str]:
    rng = random.Random(103)
    lines = []
    for _ in range(n):
        p = random_process(rng, rng.randint(1, 3))
        image = comb.interp(p)
        sorted_comb = random_sorted_comb(rng, 2, 3)
        junk = comb.ap(image, comb.interp(random_process(rng, 1)))
        lines.append(f"interp {print_rho(p)} = {print_comb(image)}")
        for c in (image, sorted_comb, junk):
            lines.append(f"  {print_comb(c)} : {comb.sort_infer(c)!r}; back {_least_fuel(c)}")
    return lines


def _witness_lines(verdict) -> list[str]:
    lines = [f"  bisimilar={verdict.bisimilar} depth={verdict.depth}"]
    w = verdict.witness
    while w is not None:
        lines.append(f"    {w.kind} {w.side} {w.bound}: {w.describe()}")
        w = w.inner
    return lines


def bisimulation(n: int) -> list[str]:
    rng = random.Random(107)
    lines = []
    for i in range(n):
        p = random_comm_candidate(rng, 2)
        q = random_comm_candidate(rng, 2) if i % 3 else rho.Par(p, rho.ZERO)
        names = bisim.names_occurring(p) + bisim.names_occurring(q)
        depth = 1 + i % 3
        lines.append(f"{print_rho(p)} ~ {print_rho(q)} at {depth}")
        report = bisim.faithfulness_check(p, q, names, depth)
        lines.append(f"  agree={report.agree} inconclusive={report.inconclusive}")
        for verdict in (report.calculus, report.combinator):
            lines += _witness_lines(verdict) if verdict is not None else ["  none"]
    return lines


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{argv} -> {code}\n{out.getvalue()}"


def command_lines(n: int) -> list[str]:
    rng = random.Random(109)
    lines = []
    for i in range(n):
        form = ("--format", "json" if i % 2 else "text")
        t = print_ski(random_ski_term(rng.randint(1, 10), rng))
        p = random_comm_candidate(rng, 2)
        q = random_comm_candidate(rng, 2)
        c = print_comb(comb.wrap_context(comb.interp(p)))
        sorted_comb = print_comb(random_sorted_comb(rng, 2, 2))
        strategy = ("first", "random", "all")[i % 3]
        runs = [
            ["reduce", "--calculus", "ski", "--strategy", strategy, "--seed", str(i), "--fuel", "20", t],
            ["trace", "--calculus", "ski-whnf", "--fuel", "20", f"(R {t})"],
            ["trace", "--calculus", "ski-gas", "--gas", str(i % 5), t],
            ["trace", "--calculus", "rho", "--strategy", strategy, "--fuel", "3", print_rho(p)],
            ["reduce", "--calculus", "rho-comb", "--strategy", strategy, "--fuel", "3", c],
            ["translate", "--calculus", "rho", print_rho(p)],
            ["translate", "--calculus", "rho-comb", "--fuel", str(i * 3), sorted_comb],
            ["sort", "--calculus", "rho-comb", sorted_comb],
            ["sort", "--calculus", "rho-comb", f"({sorted_comb} 0)"],
            ["barbs", "--calculus", "rho", print_rho(p)],
            ["barbs", "--calculus", "rho-comb", "--depth", "2", c],
            ["bisim", "--calculus", "rho", "--depth", "2", print_rho(p), print_rho(q)],
            ["bisim", "--calculus", "rho-comb", "--depth", "2", c, c],
            ["faithfulness", "--depth", "2", print_rho(p), print_rho(q)],
            ["roundtrip", "--calculus", "rho", print_rho(p)],
            ["roundtrip", "--calculus", "rho-comb", "--fuel", "40", sorted_comb],
        ]
        lines += [_run_cli(argv[:1] + list(form) + argv[1:]) for argv in runs]
    for argv in (["reduce", "--calculus", "ski", "(S K"], ["reduce", "--calculus", "ski", "--fuel", "-1", "I"],
                 ["translate", "--calculus", "ski", "I"], ["bisim", "--calculus", "ski", "I", "I"],
                 ["sort", "--calculus", "rho-comb", "(& $x)"], ["nonsense"]):
        lines.append(_run_cli(argv))
    return lines


SECTIONS = (("traces", traces), ("translation", translation), ("bisim", bisimulation), ("cli", command_lines))


def digests(n: int) -> tuple[list[tuple[str, int, str]], str]:
    """Each section's name, line count and digest, and one digest over all of them."""
    total = hashlib.sha256()
    rows = []
    for name, section in SECTIONS:
        lines = section(n)
        digest = hashlib.sha256("\n".join(lines).encode())
        total.update(digest.digest())
        rows.append((name, len(lines), digest.hexdigest()))
    return rows, total.hexdigest()


def main(argv: list[str]) -> int:
    rows, total = digests(int(argv[0]) if argv else 40)
    for name, count, digest in rows:
        print(f"{name:12} {count:7} lines  {digest}")
    print(f"{'all':12} {'':13}  {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
