"""Independent SKI references: plain structural matching and rebuilding.

Nothing here calls the rewriting core.  ``naive_ski_step`` comes from the
repository's own test oracle (``tests/naive.py``); the strategies below are
written out again by hand so that a query's whole trace can be predicted.
"""

from __future__ import annotations

import random
from typing import Optional

from naive import naive_ski_step
from skirho.core import Term
from skirho.ski import APP_DECL, I_DECL, K_DECL, R_DECL, S_DECL, R, ap

from .inputs import node_count

__all__ = ["naive_ski_step", "first_run", "random_run", "head_run", "head_step", "gas_final",
           "marker_count", "TooLarge"]


class TooLarge(Exception):
    """A reference run grew a term past the size cap of the workload."""


def _contract(rule: str, u: Term) -> Optional[Term]:
    if u.head is not APP_DECL:
        return None
    f, z = u.children
    if rule == "iota":
        return z if f.head is I_DECL else None
    if f.head is not APP_DECL:
        return None
    g, y = f.children
    if rule == "kappa":
        return y if g.head is K_DECL else None
    if g.head is APP_DECL and g.children[0].head is S_DECL:
        x = g.children[1]
        return ap(ap(x, z), ap(y, z))
    return None


def _first_at(rule: str, u: Term) -> Optional[Term]:
    """Contract the pre-order first ``rule`` redex of u, or None."""
    here = _contract(rule, u)
    if here is not None:
        return here
    if u.head is APP_DECL:
        left, right = u.children
        new = _first_at(rule, left)
        if new is not None:
            return ap(new, right)
        new = _first_at(rule, right)
        if new is not None:
            return ap(left, new)
    return None


def _all_at(rule: str, u: Term, rebuild, out: list) -> None:
    """Append every ``rule`` contraction in u, in pre-order, rebuilt to the root."""
    here = _contract(rule, u)
    if here is not None:
        out.append(rebuild(here))
    if u.head is APP_DECL:
        left, right = u.children
        _all_at(rule, left, lambda n: rebuild(ap(n, right)), out)
        _all_at(rule, right, lambda n: rebuild(ap(left, n)), out)


def options(t: Term) -> list[Term]:
    """Every one-step reduct, rule-major (sigma, kappa, iota), then pre-order."""
    out: list[Term] = []
    for rule in ("sigma", "kappa", "iota"):
        _all_at(rule, t, lambda n: n, out)
    return out


def random_run(t: Term, fuel: int, seed: int, cap: int) -> tuple[list[Term], str]:
    """Terms visited by the seeded random strategy and its final status."""
    rng = random.Random(seed)
    terms = [t]
    for _ in range(fuel):
        opts = options(terms[-1])
        if not opts:
            return terms, "normal_form"
        nxt = opts[rng.randrange(len(opts))]
        if node_count(nxt) > cap:
            raise TooLarge
        terms.append(nxt)
    return terms, ("normal_form" if first_step(terms[-1]) is None else "fuel_exhausted")


def first_step(t: Term) -> Optional[Term]:
    """Rule-major choice: the first sigma redex in pre-order, else kappa, else iota."""
    for rule in ("sigma", "kappa", "iota"):
        new = _first_at(rule, t)
        if new is not None:
            return new
    return None


def first_run(t: Term, fuel: int, cap: int) -> tuple[list[Term], str]:
    """Terms visited by the first strategy and its final status."""
    terms = [t]
    for _ in range(fuel):
        nxt = first_step(terms[-1])
        if nxt is None:
            return terms, "normal_form"
        if node_count(nxt) > cap:
            raise TooLarge
        terms.append(nxt)
    return terms, ("normal_form" if first_step(terms[-1]) is None else "fuel_exhausted")


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args = []
    while t.head is APP_DECL:
        args.append(t.children[1])
        t = t.children[0]
    args.reverse()
    return t, args


def _apply(head: Term, args: list[Term]) -> Term:
    for a in args:
        head = ap(head, a)
    return head


def head_step(t: Term) -> Optional[Term]:
    """One head-spine contraction, never looking inside arguments."""
    head, args = _spine(t)
    need = {S_DECL: 3, K_DECL: 2, I_DECL: 1}.get(head.head)
    if need is None or len(args) < need:
        return None
    if head.head is S_DECL:
        x, y, z = args[:3]
        reduct = ap(ap(x, z), ap(y, z))
    else:
        reduct = args[0]
    return _apply(reduct, args[need:])


def head_run(t: Term, fuel: int, cap: int) -> list[Term]:
    """Terms visited by head reduction, stopping at whnf or after ``fuel`` steps."""
    terms = [t]
    for _ in range(fuel):
        nxt = head_step(terms[-1])
        if nxt is None:
            break
        if node_count(nxt) > cap:
            raise TooLarge
        terms.append(nxt)
    return terms


def gas_final(t: Term, markers: int) -> Term:
    """R^markers t with every marker floated onto the head combinator."""
    head, args = _spine(t)
    for _ in range(markers):
        head = R(head)
    return _apply(head, args)


def marker_count(t: Term) -> int:
    return (t.head is R_DECL) + sum(marker_count(c) for c in t.children)
