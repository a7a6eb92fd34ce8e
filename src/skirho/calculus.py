"""One record per calculus, keyed by the names the command line accepts.

Once binders are gone, each calculus is a graph-enriched theory: its terms
and the one-step reduction edges between them.  A `Calculus` record holds
what running a calculus needs and nothing else: parse, print and
canonicalize a term, the labelled edges out of a canonical term in the order
the strategies of `core.drive` take them, and the fixed order on canonical
terms.  The two agent calculi also carry their names, the names a term
holds and its immediate barbs, which is all bisimulation reads.  `edges`
and `barbs` take canonical terms: callers canonicalize once, where a term
enters.

`CALCULI` makes a record on its first lookup, importing its calculus's
module then, so a process that runs one calculus loads only that one:
`CALCULI["ski"]` never imports `rho` or `comb`.  Until then the name is not
among the keys; `NAMES` lists all five, in the order the command line
offers them.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from . import ski
from .core import Successors, Term, canonicalize, iter_redexes, term_key


class Calculus(NamedTuple):
    """Terms, their one-step edges and, for agent calculi, names and barbs.

    `parse` raises ValueError (a `syntax.ParseError` for bad syntax).
    `names(agent)` lists the names the agent can barb on, repeats included.
    `barbs(agent, names)` gives the subjects of the agent's top-level
    outputs among `names`, all canonical.  `gas`, for the fueled SKI
    presentation only, turns an R-free term and a marker count into the
    starting term.
    """

    parse: Callable[[str], Any]
    print: Callable[[Any], str]
    canon: Callable[[Any], Any]
    edges: Successors
    key: Callable[[Any], Any]
    parse_name: Optional[Callable[[str], Any]] = None
    print_name: Optional[Callable[[Any], str]] = None
    canon_name: Optional[Callable[[Any], Any]] = None
    names: Optional[Callable[[Any], list]] = None
    barbs: Optional[Callable[[Any, tuple], frozenset]] = None
    gas: Optional[Callable[[Term, int], Term]] = None


def _ski(variant: str, gas: Optional[Callable[[Term, int], Term]] = None) -> Calculus:
    pres = ski.PRESENTATIONS[variant]
    return Calculus(partial(ski.parse_ski, variant=variant), ski.print_ski,
                    partial(canonicalize, pres), partial(iter_redexes, pres), term_key, gas=gas)


def _fuel(t: Term, n: int) -> Term:
    if ski.contains_marker(t):
        raise ValueError("supply an R-free term and use --gas")
    return ski.wrap_markers(t, n)


def _rho() -> Calculus:
    from . import rho
    return Calculus(rho.parse_closed, rho.print_rho, rho.canon_process, rho.comm_edges,
                    rho.process_key, parse_name=rho.parse_rho_name, print_name=rho.print_rho_name,
                    canon_name=rho.canon_name, names=rho.all_names, barbs=rho.barbs)


def _rho_comb() -> Calculus:
    from . import comb
    return Calculus(comb.parse_comb, comb.print_comb, comb.canon,
                    partial(iter_redexes, comb.PRESENTATION), term_key,
                    parse_name=comb.parse_comb, print_name=comb.print_comb,
                    canon_name=comb.canon, names=lambda t: comb.all_names(comb.canon(t)),
                    barbs=comb.barbs)


_BUILDERS = {"ski": partial(_ski, "plain"), "ski-whnf": partial(_ski, "whnf"),
             "ski-gas": partial(_ski, "gas", gas=_fuel), "rho": _rho, "rho-comb": _rho_comb}
NAMES = tuple(_BUILDERS)


class _Registry(dict):
    """The records made so far; looking a name up makes its record if missing."""

    def __missing__(self, name: str) -> Calculus:
        record = self[name] = _BUILDERS[name]()
        return record


CALCULI: dict[str, Calculus] = _Registry()
