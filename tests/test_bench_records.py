"""Committed benchmark records (`BENCH_*.json` at the root of the repository).

A record holds the result lines of `bench/run.py` for the parent commit and
for the change, one per workload, seed and side, with the medians it quotes.
Each side must cover the same workloads and seeds, with at least five seeds,
every run must report no failed query, and only the end-to-end metrics that
`BENCHMARK.json` declares may appear.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in DECLARED["end_to_end"]}
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
SIDES = ("parent", "change")


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_both_sides_alike_and_reports_no_failure(path):
    record = json.loads(path.read_text())
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        runs = workload["runs"]
        assert {run["side"] for run in runs} == set(SIDES), name
        seeds = {side: sorted(run["seed"] for run in runs if run["side"] == side) for side in SIDES}
        assert seeds["parent"] == seeds["change"], name
        assert len(set(seeds["parent"])) == len(seeds["parent"]) >= 5, name
        for run in runs:
            assert run["result"]["failed"] == 0, (name, run["side"], run["seed"])
            assert set(run["result"]["metrics"]) <= METRICS, (name, run["side"], run["seed"])
        for side in SIDES:
            median = workload["median"][side]
            assert set(median) <= METRICS, (name, side)
            for metric, value in median.items():
                values = [run["result"]["metrics"][metric]["value"] for run in runs if run["side"] == side]
                assert value == pytest.approx(statistics.median(values)), (name, side, metric)
