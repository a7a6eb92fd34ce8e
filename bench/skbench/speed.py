"""A gauge of the machine's speed, sampled between queries.

On a shared virtual machine the same Python code runs up to twice as fast
at one moment as a few seconds later, and the process's CPU time slows with
it, so neither wall time nor CPU time gives a steady figure.  The gauge runs
a short, fixed, pure-Python slice (tuple terms, hashing, sets, sorting;
nothing from ``skirho``) between queries and records how long it took.
Each query's time is then scaled by ``NOMINAL_S`` over the median slice
time around the moment it ran: the time the query would have taken had the
machine run at the speed that gives a slice ``NOMINAL_S`` seconds.

No change to the program can move the slice itself: it shares no code with
the program, and the cyclic garbage collector is off while it runs, so a
larger heap of the program's does not lengthen it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

NOMINAL_S = 0.005  # a slice at the reference speed (about the median on a 2-core Xeon VM)
EVERY_S = 0.05     # at most one slice per this much time of the run
NEIGHBOURS = 9     # the slices around a moment whose median gives its speed


def _tree(rng: random.Random, leaves: int):
    if leaves <= 1:
        return rng.choice("SKI")
    left = rng.randint(1, leaves - 1)
    return (_tree(rng, left), _tree(rng, leaves - left))


def _steps(t) -> list:
    """All one-step S/K/I reducts of a tuple term."""
    out = []
    if isinstance(t, tuple):
        f, a = t
        if f == "I":
            out.append(a)
        if isinstance(f, tuple):
            g, b = f
            if g == "K":
                out.append(b)
            if isinstance(g, tuple) and g[0] == "S":
                out.append(((g[1], a), (b, a)))
        out.extend((r, a) for r in _steps(f))
        out.extend((f, r) for r in _steps(a))
    return out


def _size(t) -> int:
    return 1 + _size(t[0]) + _size(t[1]) if isinstance(t, tuple) else 1


def _flatten(t):
    """The leaves of a term as a sorted tuple, as an AC canonicalizer orders them."""
    if not isinstance(t, tuple):
        return (t,)
    return tuple(sorted(_flatten(t[0]) + _flatten(t[1])))


TERMS = tuple(_tree(random.Random(k), 9 + k % 5) for k in range(12))


def slice_work() -> int:
    """The fixed work of one slice: a bounded breadth-first search per term."""
    seen = 0
    for t in TERMS:
        frontier, visited = [t], {t}
        while frontier and len(visited) < 60:
            nxt = []
            for u in frontier:
                for v in _steps(u):
                    if v not in visited and _size(v) < 40:
                        visited.add(v)
                        nxt.append(v)
            frontier = nxt
        seen += len({_flatten(v) for v in visited})
    return seen


class Gauge:
    def __init__(self) -> None:
        self.at: list[float] = []     # moments of the samples, seconds from the run's start
        self.took: list[float] = []   # seconds each slice took
        self._last = float("-inf")

    def sample(self, at: float) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            slice_work()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(at)
        self.took.append(took)
        self._last = at

    def maybe_sample(self, at: float) -> None:
        if at - self._last >= EVERY_S:
            self.sample(at)

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median slice time of the samples nearest ``at``."""
        k = bisect.bisect_left(self.at, at)
        lo = max(0, min(k - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
        return NOMINAL_S / statistics.median(self.took[lo:lo + NEIGHBOURS])
