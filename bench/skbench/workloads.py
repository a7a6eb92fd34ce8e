"""The workload registry.

Every workload is a class with the same duck-typed interface:

- ``name``; ``warmup_queries``, run before timing and in each set-up probe;
  ``rss_of_children``, true when the program runs in child processes whose
  peak memory the workload tracks in ``children_peak_rss_kb``.
- ``prepare()`` builds what every query needs, once per process.
- ``make(rng, i)`` draws query ``i`` as a dict holding the input text and
  whatever the references need.  ``describe(q)`` gives the input on one line.
- ``run(q, tracer)`` sends the query to the program and returns ``(output,
  raw)``: ``output`` is the tuple of texts and numbers the program produced,
  compared between traced and untraced runs; ``raw`` holds the result
  objects the checks read.
- ``check(q, output, raw, tracer)`` returns ``(errors, findings)``; a finding
  is ``(metric, reason)`` for a known defect the query ran into.
"""

from __future__ import annotations


def make_workload(name: str):
    # imports are deferred so that set-up pays only for the modules a workload uses
    if name == "ski-normalize":
        from .ski_normalize import SkiNormalize

        return SkiNormalize()
    if name == "comb-search":
        from .comb_search import CombSearch

        return CombSearch()
    if name == "bisim-faithfulness":
        from .bisim_faithfulness import BisimFaithfulness

        return BisimFaithfulness()
    if name == "cli-cold":
        from .cli_cold import CliCold

        return CliCold()
    raise ValueError(f"unknown workload {name!r}")
