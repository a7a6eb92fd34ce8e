"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

from skbench.harness import query_rng, tail_mean, tail_percentile  # noqa: E402
from skbench.speed import NOMINAL_S, Gauge  # noqa: E402
from skirho import rho  # noqa: E402
from skbench.tracing import NullTracer, Tracer  # noqa: E402
from skbench.workloads import make_workload  # noqa: E402

WORKLOADS = ("ski-normalize", "comb-search", "bisim-faithfulness", "cli-cold")


@pytest.fixture(scope="module", params=WORKLOADS)
def workload(request):
    wl = make_workload(request.param)
    wl.prepare()
    return wl


def _inputs(wl, seed: int, count: int = 12) -> list[str]:
    return [wl.describe(wl.make(query_rng(wl.name, seed, i), i)) for i in range(count)]


def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _inputs(workload, 1)
    assert first == _inputs(workload, 1)
    assert first != _inputs(workload, 2)


def _run_checked(wl, i: int, seed: int = 3):
    q = wl.make(query_rng(wl.name, seed, i), i)
    out, raw = wl.run(q, NullTracer())
    errs, _ = wl.check(q, out, raw, NullTracer())
    assert errs == [], wl.describe(q)
    return q, out, raw


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(name):
    wl = make_workload(name)
    wl.prepare()
    for i in range(4 if name == "cli-cold" else 12):
        q = wl.make(query_rng(wl.name, 5, i), i)
        plain, _ = wl.run(q, NullTracer())
        tracer = Tracer()
        tracer.begin_query(i)
        traced, _ = wl.run(q, tracer)
        tracer.end_query()
        assert plain == traced, wl.describe(q)
        assert len(tracer.spans) > 1


def _find(wl, want, limit: int = 200):
    """The first query (by index) whose checked run satisfies ``want``."""
    for i in range(limit):
        q, out, raw = _run_checked(wl, i)
        if want(q, raw):
            return q, out, raw
    raise AssertionError("no such query in the stream")


def _rejects(wl, q, out, raw) -> bool:
    errs, _ = wl.check(q, out, raw, NullTracer())
    return bool(errs)


def test_ski_checks_reject_planted_answers():
    wl = make_workload("ski-normalize")
    wl.prepare()
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "plain" and q["strategy"] == "first"
                        and raw["norm"].steps and raw["succs"])
    assert _rejects(wl, q, out, dict(raw, succs=set(list(raw["succs"])[1:])))
    assert _rejects(wl, q, out, dict(raw, norm=replace(raw["norm"], steps=raw["norm"].steps[:-1])))
    assert _rejects(wl, q, out[:-1] + ("S",), raw)
    gas = raw["gas"]
    assert _rejects(wl, q, out, dict(raw, gas=replace(gas, steps=gas.steps + gas.steps[-1:]))
                    if gas.steps else dict(raw, gas=replace(gas, initial=raw["whnf"].final)))
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "plain" and q["head_steps"])
    whnf = raw["whnf"]
    assert _rejects(wl, q, out, dict(raw, whnf=replace(whnf, steps=whnf.steps[:-1])))


def test_comb_checks_reject_planted_answers():
    wl = make_workload("comb-search")
    wl.prepare()
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "comm" and not q["deref_message"])
    assert _rejects(wl, q, out, dict(raw, sort=None))
    assert _rejects(wl, q, out, dict(raw, back=rho.ZERO))
    assert _rejects(wl, q, out, dict(raw, matched={}))
    assert _rejects(wl, q, out, dict(raw, trace=replace(raw["trace"], status="fuel_exhausted")))
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "admin")
    assert _rejects(wl, q, out, dict(raw, again=raw["parsed"]))
    assert _rejects(wl, q, out, dict(raw, trace=replace(raw["trace"], status="normal_form")))


def test_bisim_checks_reject_planted_verdicts():
    wl = make_workload("bisim-faithfulness")
    wl.prepare()
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "fixed")
    flipped = replace(raw["rho"], bisimilar=not raw["rho"].bisimilar)
    assert _rejects(wl, q, out, dict(raw, rho=flipped))
    assert _rejects(wl, q, out, dict(raw, comb=None))


def test_bisim_counts_disagreements_on_random_pairs():
    wl = make_workload("bisim-faithfulness")
    wl.prepare()
    q, out, raw = _find(wl, lambda q, raw: q["kind"] == "random" and raw["rho"] is not None
                        and raw["comb"] is not None)
    flipped = replace(raw["comb"], bisimilar=not raw["rho"].bisimilar)
    errs, findings = wl.check(q, out, dict(raw, comb=flipped), NullTracer())
    assert errs == [] and findings[0][0] == "bisim.disagreements"


def test_cli_checks_reject_planted_output():
    wl = make_workload("cli-cold")
    wl.prepare()
    q, out, raw = _run_checked(wl, 0)
    assert _rejects(wl, q, (out[0], out[1] + "x"), raw)
    assert _rejects(wl, q, (1, out[1]), raw)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.begin_query(0)
    tr.add_span("child", 1.0, 1.25)
    tr.end_query()
    q, sid, parent, name, start, end = tr.spans[0]
    assert tr.self_times()["child"] == [0.25]
    assert tr.self_times()["query"][0] == pytest.approx(end - start - 0.25)


def test_tail_mean_averages_the_slowest_tenth():
    assert tail_mean([float(i) for i in range(100)]) == pytest.approx(94.5)
    assert tail_mean([2.0]) == 2.0


@pytest.mark.parametrize("n, pct", [(100, 90.0), (1000, 99.0), (999, 95.0), (10_000, 99.9), (30, 50.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    xs = [float(i) for i in range(n)]
    got, value, beyond = tail_percentile(xs)
    assert got == pct and sum(x > value for x in xs) == beyond
    assert beyond >= 10 or pct == 50.0


def test_gauge_scales_by_the_slices_around_a_moment():
    g = Gauge()
    g.at = [float(k) for k in range(20)]
    g.took = [NOMINAL_S] * 10 + [2 * NOMINAL_S] * 10  # the machine halves its speed at t=10
    assert g.scale(2.0) == 1.0
    assert g.scale(17.0) == 0.5
    assert g.scale(100.0) == 0.5  # past the last sample: the last NEIGHBOURS samples
    g.sample(20.0)
    assert len(g.took) == 21 and g.took[-1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ski-normalize",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ski-normalize",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
