"""Human-readable lines and the final JSON line of a run."""

from __future__ import annotations

import json
import platform

def print_run(args, res, metrics: dict, info: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} {mode} python={platform.python_version()}: "
          f"{res.attempted} queries attempted, {len(res.failures)} failed")
    for text, why in res.failures:
        print(f"FAILED {text}: {why}")
    for metric, text, why in res.findings:
        print(f"COUNTED ({metric}) {text}: {why}")
    if res.attempted:
        print(f"failed_share {len(res.failures) / res.attempted:.6f} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if info:
        print(f"{info['samples']} latencies, scaled by the speed gauge; the machine ran at "
              f"{info['speed']:.3f} of its reference speed (median); as measured: "
              f"setup_s {info['raw_setup_s']:.6g}, "
              f"queries_per_s {info['raw_queries_per_s']:.6g}, "
              f"latency_p50_ms {info['raw_latency_p50_ms']:.6g}, "
              f"latency_tail_ms {info['raw_latency_tail_ms']:.6g}")
        pct, value, beyond = info["tail_percentile"]
        print(f"latency p{pct:g} {value * 1e3:.6g} ms, with {beyond} of {info['samples']} "
              f"samples beyond it")
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def print_table(rows: dict) -> None:
    """One line per metric, one column per workload."""
    names = list(rows)
    width = max(len(n) for n in names) + 2
    print("metric".ljust(24) + "unit".ljust(8) + "".join(n.rjust(width) for n in names))
    shares = {n: r["failed"] / r["attempted"] for n, r in rows.items()}
    print("failed_share".ljust(24) + "share".ljust(8)
          + "".join(f"{shares[n]:.4f}".rjust(width) for n in names))
    metric_names = []
    for r in rows.values():
        metric_names += [m for m in r["metrics"] if m not in metric_names]
    for m in metric_names:
        unit = next(r["metrics"][m]["unit"] for r in rows.values() if m in r["metrics"])
        cells = "".join((f"{rows[n]['metrics'][m]['value']:.6g}" if m in rows[n]["metrics"]
                         else "-").rjust(width) for n in names)
        print(m.ljust(24) + unit.ljust(8) + cells)
