"""Per-layer metrics derived from the spans and counts of a traced run.

Time metrics are the mean self time of one call of the named span.  A
workload that never calls a layer reports 0 for it: the layer is bypassed.
"""

from __future__ import annotations

from .tracing import Tracer

# metric -> (unit, kind, span, count)
#   "self":  mean self time per span, in the unit
#   "per":   count per span call
#   "rate":  count per second of the span's total self time
#   "total": the count itself
#   "ratio": total self time of span over total self time of count (a span)
LAYERS: dict[str, tuple[str, str, str, str | None]] = {
    "core.step_s": ("s", "self", "core.step", None),
    "core.step_successors": ("count", "per", "core.step", "core.step_successors"),
    "core.reduce_first_s": ("s", "self", "core.reduce_first", None),
    "core.reduce_first_steps": ("count", "per", "core.reduce_first", "core.reduce_first_steps"),
    "core.first_steps_per_s": ("1/s", "rate", "core.reduce_first", "core.reduce_first_steps"),
    "core.reduce_random_s": ("s", "self", "core.reduce_random", None),
    "core.reduce_all_s": ("s", "self", "core.reduce_all", None),
    "core.reduce_all_trace_steps": ("count", "per", "core.reduce_all", "core.reduce_all_trace_steps"),
    "core.canonicalize_s": ("s", "self", "core.canonicalize", None),
    "ski.whnf_run_s": ("s", "self", "ski.whnf_run", None),
    "ski.gas_trace_s": ("s", "self", "ski.gas_trace", None),
    "ski.marker_steps": ("count", "per", "ski.gas_trace", "ski.marker_steps"),
    "ski.step_oracle_ratio": ("ratio", "ratio", "core.step", "ref.naive_step"),
    "comb.interp_s": ("s", "self", "comb.interp", None),
    "comb.backinterp_s": ("s", "self", "comb.backinterp", None),
    "comb.sort_infer_s": ("s", "self", "comb.sort_infer", None),
    "comb.image_nodes": ("count", "per", "comb.interp", "comb.image_nodes"),
    "comb.unreached_targets": ("count", "total", "", "comb.unreached_targets"),
    "rho.comm_step_s": ("s", "self", "rho.comm_step", None),
    "rho.comm_successors": ("count", "per", "rho.comm_step", "rho.comm_successors"),
    "rho.canon_process_s": ("s", "self", "rho.canon_process", None),
    "bisim.rho_side_s": ("s", "self", "bisim.rho_side", None),
    "bisim.comb_side_s": ("s", "self", "bisim.comb_side", None),
    "bisim.verdicts": ("count", "total", "", "bisim.verdicts"),
    "bisim.inconclusive": ("count", "total", "", "bisim.inconclusive"),
    "bisim.disagreements": ("count", "total", "", "bisim.disagreements"),
    "syntax.parse_s": ("s", "self", "syntax.parse", None),
    "syntax.print_s": ("s", "self", "syntax.print", None),
    "syntax.nodes_parsed_per_s": ("1/s", "rate", "syntax.parse", "syntax.nodes_parsed"),
    "cli.interpreter_ms": ("ms", "self", "cli.interpreter", None),
    "cli.import_ms": ("ms", "self", "cli.import", None),
    "cli.command_ms": ("ms", "self", "cli.command", None),
}

# computed by the harness from the paired traced and untraced executions
OVERHEAD = ("trace.overhead_share", "share")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    selfs = tracer.self_times()
    out = {}
    for metric, (unit, kind, span, count) in LAYERS.items():
        times = selfs.get(span, [])
        calls, busy = len(times), sum(times)
        amount = tracer.counts.get(count, 0.0) if count else 0.0
        if kind == "self":
            value = busy / calls if calls else 0.0
            if unit == "ms":
                value *= 1e3
        elif kind == "per":
            value = amount / calls if calls else 0.0
        elif kind == "rate":
            value = amount / busy if busy else 0.0
        elif kind == "ratio":
            oracle = sum(selfs.get(count, []))
            value = busy / oracle if oracle else 0.0
        else:
            value = amount
        out[metric] = (value, unit)
    return out
