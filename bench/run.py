#!/usr/bin/env python3
"""Closed-loop benchmark of skirho's public API and command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ski-normalize --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client sends seeded queries as surface-syntax text, one at a time, and
checks every output against an independent reference.  With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  ``all`` runs
every workload in its own process and prints one table.  The benchmark
exits with code 2, printing no result, when the program under test is not
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("ski-normalize", "comb-search", "bisim-faithfulness", "cli-cold")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one set-up in this process and print it")
    return ap.parse_args(argv)


def _load_program():
    """Put the checkout's sources first on the path and import the workloads."""
    for needed in (ROOT / "src" / "skirho", ROOT / "tests" / "naive.py"):
        if not needed.exists():
            raise ImportError(f"{needed.relative_to(ROOT)} is missing from the checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from skbench.workloads import make_workload

    return make_workload


def run_all(args) -> int:
    from skbench.report import print_table

    rows = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print_table(rows)
    return 0


def _pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so that the
    speed gauge samples the CPU the program runs on (``cli-cold`` runs it in
    child processes)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_to_one_cpu()
    try:
        make_workload = _load_program()
    except ImportError as err:
        print(f"bench: cannot load the program under test: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from skbench import harness, report

    wl = make_workload(args.workload)
    if args.setup_probe:
        print(f"{harness.setup_probe(wl, STARTED):.9f}")
        return 0
    wl.prepare()
    harness.warm_up(wl)
    if args.trace:
        tracer = harness.Tracer()
        res = harness.closed_loop(wl, args.seed, args.seconds, tracer)
    else:
        probe = harness.setup_prober(Path(__file__).resolve(), args.workload)
        res = harness.closed_loop(wl, args.seed, args.seconds, None, probe)
    if not res.latencies:
        for text, why in res.failures:
            print(f"FAILED {text}: {why}", file=sys.stderr)
        print("bench: no query completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, info = harness.per_layer(res, tracer), {}
        tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, info = harness.end_to_end(wl, res)
    report.print_run(args, res, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
