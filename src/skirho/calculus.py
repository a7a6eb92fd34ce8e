"""One record per calculus, keyed by the names the command line accepts.

Once binders are gone, each calculus is a graph-enriched theory: its terms
and the one-step reduction edges between them.  A `Calculus` record holds
what running a calculus needs and nothing else: parse, print and
canonicalize a term, the labelled edges out of a canonical term in the order
the strategies of `core.drive` take them, and the fixed order on canonical
terms.  The two agent calculi also carry their names and immediate barbs,
which is all bisimulation reads.  `edges` and `barbs` take canonical terms:
callers canonicalize once, where a term enters.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from . import comb, rho, ski
from .core import Successors, Term, canonicalize, iter_redexes, term_key
from .syntax import (
    parse_comb,
    parse_rho,
    parse_rho_name,
    parse_ski,
    print_comb,
    print_rho,
    print_rho_name,
    print_ski,
)


class Calculus(NamedTuple):
    """Terms, their one-step edges and, for agent calculi, names and barbs.

    `parse` raises ValueError (a `syntax.ParseError` for bad syntax).
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
    barbs: Optional[Callable[[Any, tuple], frozenset]] = None
    gas: Optional[Callable[[Term, int], Term]] = None


def _ski(variant: str, gas: Optional[Callable[[Term, int], Term]] = None) -> Calculus:
    pres = ski.PRESENTATIONS[variant]
    return Calculus(partial(parse_ski, variant=variant), print_ski, partial(canonicalize, pres),
                    partial(iter_redexes, pres), term_key, gas=gas)


def _fuel(t: Term, n: int) -> Term:
    if ski.contains_marker(t):
        raise ValueError("supply an R-free term and use --gas")
    return ski.wrap_markers(t, n)


def _parse_closed(text: str) -> rho.Process:
    p = parse_rho(text)
    if not rho.is_closed(p):
        raise ValueError("process must be closed")
    return p


def _rho_barbs(p: rho.Process, names: tuple) -> frozenset:
    return frozenset(c.subject for c in rho.par_components(p)
                     if isinstance(c, rho.Output) and c.subject in names)


def _comb_barbs(t: Term, names: tuple) -> frozenset:
    """Subjects ``x`` of the components ``((! x) P)`` among `names`."""
    found = set()
    for c in comb.par_components(t):
        if c.head == comb.APP_DECL and c.children[0].head == comb.APP_DECL:
            send, subject = c.children[0].children
            if send.head == comb.BANG_DECL and subject in names:
                found.add(subject)
    return frozenset(found)


CALCULI = {
    "ski": _ski("plain"),
    "ski-whnf": _ski("whnf"),
    "ski-gas": _ski("gas", gas=_fuel),
    "rho": Calculus(_parse_closed, print_rho, rho.canon_process, rho.comm_edges,
                    rho.process_key, parse_name=parse_rho_name, print_name=print_rho_name,
                    canon_name=rho.canon_name, barbs=_rho_barbs),
    "rho-comb": Calculus(parse_comb, print_comb, comb.canon,
                         partial(iter_redexes, comb.PRESENTATION), term_key,
                         parse_name=parse_comb, print_name=print_comb,
                         canon_name=comb.canon, barbs=_comb_barbs),
}
