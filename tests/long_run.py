"""Time long `first` runs of a growing SKI term.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/long_run.py 1000 2000 3000

The term is ``(((S I) I) ((S (K ((S I) I))) ((S ((S (K S)) K)) (K ((S I) I)))))``
under the plain presentation; it grows by about nine nodes a step and has no
normal form.  Each step count is one run from the start; the line gives the
steps taken, the seconds they took and the number of nodes at the end.
"""

from __future__ import annotations

import sys
from time import perf_counter

from skirho.core import reduce
from skirho.ski import ski_presentation
from skirho.syntax import parse_ski

TERM = "(((S I) I) ((S (K ((S I) I))) ((S ((S (K S)) K)) (K ((S I) I)))))"


def nodes(t) -> int:
    n, todo = 0, [t]
    while todo:
        n += 1
        todo += todo.pop().children
    return n


def main(argv: list[str]) -> None:
    plain = ski_presentation("plain")
    for steps in map(int, argv or ["1000"]):
        start = parse_ski(TERM, variant="plain")
        began = perf_counter()
        trace = reduce(plain, start, "first", steps)
        took = perf_counter() - began
        print(f"{len(trace.steps)} steps in {took:.2f} s, {nodes(trace.final)} nodes at the end")


if __name__ == "__main__":
    main(sys.argv[1:])
