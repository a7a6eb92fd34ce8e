#!/usr/bin/env python3
"""Run every workload on several seeds and summarize the runs as JSON.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/baseline.json

For each workload and end-to-end metric it records every run's value, the
median, the quartiles and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles); then one traced
run per workload gives the per-layer metrics.  The file also records the
Python version, the processor count and the git commit of the code measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ski-normalize", "comb-search", "bisim-faithfulness", "cli-cold")


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def summarize(runs: list[dict]) -> dict:
    out = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "unit": first["unit"], "values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "git_sha": _git_sha(), "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        entry = summarize(runs)
        traced = _run(workload, _seeds(args.seeds)[0], args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"  {name}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.3f}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
