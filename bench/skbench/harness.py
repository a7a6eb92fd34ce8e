"""Closed-loop driver: one client, the next query only after the last returns.

A run draws query ``i`` from ``random.Random("<workload>:<seed>:<i>")``, so
the inputs depend on the seed alone, never on how fast the program is.
Latency is the time spent inside the program for one query; the reference
check that follows it is the client's own time and is not counted.  The
end-to-end latencies are scaled to the reference speed of the machine by
the gauge of ``speed.py``, sampled between queries.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from .layers import layer_metrics
from .speed import NOMINAL_S, Gauge
from .tracing import NullTracer, Tracer

SETUP_PROBES = 7
TAIL_SHARE = 0.10  # latency_tail_ms is the mean latency of this slowest share of queries
TAIL_RUNGS = (999, 990, 950, 900, 750, 500)  # percentiles in tenths, for the printed tail percentile


def query_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def warm_up(wl) -> None:
    """The same few queries whatever the seed, so set-up does not vary with it."""
    for i in range(wl.warmup_queries):
        q = wl.make(query_rng(wl.name + "/warmup", 0, i), i)
        wl.run(q, NullTracer())


def setup_probe(wl, started: float) -> float:
    """Set-up as the workload's own process pays it: imports already done by
    the caller since ``started``, then presentations and warm-up queries."""
    wl.prepare()
    warm_up(wl)
    return perf_counter() - started


def setup_prober(run_py: Path, workload: str):
    """A function timing the set-up of one fresh process, which imports the
    program anew."""
    def probe() -> float:
        done = subprocess.run(
            [sys.executable, str(run_py), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])
    return probe


class Outcome:
    def __init__(self) -> None:
        self.setup_times: list[float] = []
        self.setup_at: list[float] = []  # seconds from the start of the run
        self.latencies: list[float] = []
        self.started: list[float] = []  # seconds from the start of the run
        self.traced: list[float] = []
        self.failures: list[tuple[str, str]] = []
        # counted observations, such as known defects a query ran into: (metric, input, reason)
        self.findings: list[tuple[str, str, str]] = []
        self.attempted = 0
        self.gauge: Gauge | None = None


def _execute(wl, q, tr, qid):
    """Run one query; returns (latency, output, raw) or raises."""
    tr.begin_query(qid)
    start = perf_counter()
    try:
        out, raw = wl.run(q, tr)
    finally:
        elapsed = perf_counter() - start
        tr.end_query()
    return elapsed, out, raw


def closed_loop(wl, seed: int, seconds: float, tracer: Tracer | None,
                probe=None) -> Outcome:
    """Run queries until ``seconds`` have passed.

    With a tracer, each query also runs untraced, the two in alternating
    order, so that tracing cost and output identity are measured on the
    same inputs.  With a ``probe``, SETUP_PROBES set-up times are taken
    between queries, spread evenly over the run, so that they sample the
    machine at different moments.
    """
    res = Outcome()
    null = NullTracer()
    probe_at = [seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)] if probe else []
    gauge = res.gauge = Gauge() if probe else None
    begin = perf_counter()


    def run_probe():
        start = perf_counter() - begin
        res.setup_times.append(probe())
        res.setup_at.append((start + perf_counter() - begin) / 2)

    if gauge:
        gauge.sample(0.0)
    i = 0
    while i == 0 or perf_counter() - begin < seconds:
        if gauge:
            gauge.maybe_sample(perf_counter() - begin)
        if probe_at and perf_counter() - begin >= probe_at[0]:
            probe_at.pop(0)
            run_probe()
            continue
        started = perf_counter() - begin
        q = wl.make(query_rng(wl.name, seed, i), i)
        res.attempted += 1
        try:
            if tracer is None:
                lat, out, raw = _execute(wl, q, null, i)
                errs, findings = wl.check(q, out, raw, null)
            else:
                tracer_first = i % 2 == 1
                if tracer_first:
                    traced_lat, out, raw = _execute(wl, q, tracer, i)
                lat, plain_out, _ = _execute(wl, q, null, i)
                if not tracer_first:
                    traced_lat, out, raw = _execute(wl, q, tracer, i)
                res.traced.append(traced_lat)
                errs, findings = wl.check(q, out, raw, tracer)
                if plain_out != out:
                    errs.append("traced and untraced outputs differ")
            res.latencies.append(lat)
            res.started.append(started)
            for metric, why in findings:
                res.findings.append((metric, wl.describe(q), why))
                if tracer is not None:
                    tracer.count(metric)
        except Exception as err:  # a query that raises is a failed query
            errs = [f"raised {type(err).__name__}: {err}"]
        if errs:
            res.failures.append((wl.describe(q), "; ".join(errs)))
        i += 1
    for _ in probe_at:
        run_probe()
    if gauge:
        gauge.sample(perf_counter() - begin)
    return res


def tail_mean(latencies: list[float]) -> float:
    """Mean of the slowest TAIL_SHARE of the latencies: an average over many
    queries, steadier from run to run than any single order statistic."""
    xs = sorted(latencies)
    return statistics.fmean(xs[-max(1, round(len(xs) * TAIL_SHARE)):])


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """The highest of TAIL_RUNGS with at least ten samples beyond it: the
    percentile, its value and the number of samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    rung = next((r for r in TAIL_RUNGS if n * (1000 - r) // 1000 >= 10), 500)
    beyond = n * (1000 - rung) // 1000
    return rung / 10, xs[n - beyond - 1], beyond


def peak_rss_mb(wl) -> float:
    """Peak memory of the process running the program: this one, or the
    largest of the workload's own children (set-up probes excluded)."""
    if wl.rss_of_children:
        return wl.children_peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, res: Outcome) -> tuple[dict, dict]:
    """Times at the machine's reference speed, each scaled by the gauge at
    the moment it was taken."""
    raw = res.latencies
    g = res.gauge
    lat = [x * g.scale(at + x / 2) for at, x in zip(res.started, raw)]
    setup = [x * g.scale(at) for at, x in zip(res.setup_at, res.setup_times)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_mean(lat) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }, {"samples": len(lat), "tail_percentile": tail_percentile(lat),
        "speed": NOMINAL_S / statistics.median(g.took),
        "raw_setup_s": statistics.median(res.setup_times),
        "raw_queries_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_tail_ms": tail_mean(raw) * 1e3}


def per_layer(res: Outcome, tracer: Tracer) -> dict:
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_share"] = (sum(res.traced) / sum(res.latencies) - 1.0, "share")
    return metrics
