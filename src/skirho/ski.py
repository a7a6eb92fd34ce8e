"""The SKI combinator calculus in three presentations.

``plain`` is the unrestricted calculus where every context reduces.  ``whnf``
guards each rule with a reduction-context marker R that a structural
congruence keeps on the head of the application spine, so only head redexes
ever fire and reduction computes the weak head normal form.  ``gas`` uses the
same guarded left-hand sides but drops the marker from each right-hand side,
so every step consumes one R, like a fuel supply.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    NORMAL_FORM,
    CongruenceSpec,
    ConstructorDecl,
    MarkerFloat,
    MetaVar,
    Presentation,
    RewriteRule,
    Sort,
    Term,
    Trace,
    leaf,
    reduce,
    subterms,
)
from .syntax import read_applications, write_applications

T = Sort("T")

S_DECL = ConstructorDecl("S", (), T)
K_DECL = ConstructorDecl("K", (), T)
I_DECL = ConstructorDecl("I", (), T)
APP_DECL = ConstructorDecl("app", (T, T), T)
R_DECL = ConstructorDecl("R", (T,), T)

VARIANTS = ("plain", "whnf", "gas")

DEFAULT_FUEL = 1000


def S() -> Term:
    return leaf(S_DECL)


def K() -> Term:
    return leaf(K_DECL)


def I() -> Term:
    return leaf(I_DECL)


def ap(f: Term, x: Term) -> Term:
    return Term(APP_DECL, (f, x))


def R(t: Term) -> Term:
    return Term(R_DECL, (t,))


_x, _y, _z = MetaVar("x", T), MetaVar("y", T), MetaVar("z", T)

_R_PROPAGATION = CongruenceSpec(marker_floats=(MarkerFloat(R_DECL, APP_DECL),))

PRESENTATIONS = {
    "plain": Presentation(
        sorts=(T,),
        constructors=(S_DECL, K_DECL, I_DECL, APP_DECL),
        rules=(
            RewriteRule("sigma", ap(ap(ap(S(), _x), _y), _z), ap(ap(_x, _z), ap(_y, _z))),
            RewriteRule("kappa", ap(ap(K(), _y), _z), _y),
            RewriteRule("iota", ap(I(), _z), _z),
        ),
    ),
    "whnf": Presentation(
        sorts=(T,),
        constructors=(S_DECL, K_DECL, I_DECL, APP_DECL, R_DECL),
        congruence=_R_PROPAGATION,
        rules=(
            RewriteRule("sigma", ap(ap(ap(R(S()), _x), _y), _z), ap(ap(R(_x), _z), ap(_y, _z))),
            RewriteRule("kappa", ap(ap(R(K()), _y), _z), R(_y)),
            RewriteRule("iota", ap(R(I()), _z), R(_z)),
        ),
    ),
    "gas": Presentation(
        sorts=(T,),
        constructors=(S_DECL, K_DECL, I_DECL, APP_DECL, R_DECL),
        congruence=_R_PROPAGATION,
        rules=(
            RewriteRule("sigma", ap(ap(ap(R(S()), _x), _y), _z), ap(ap(_x, _z), ap(_y, _z))),
            RewriteRule("kappa", ap(ap(R(K()), _y), _z), _y),
            RewriteRule("iota", ap(R(I()), _z), _z),
        ),
    ),
}


def ski_presentation(variant: str) -> Presentation:
    """One of the three presentations: plain, whnf, or gas (the PRESENTATIONS entry)."""
    try:
        return PRESENTATIONS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}") from None


def marker_count(t: Term) -> int:
    return sum(u.head is R_DECL for u in subterms(t))


def contains_marker(t: Term) -> bool:
    return marker_count(t) > 0


def strip_marker(t: Term) -> Term:
    """Remove the unique R from a normal form, recovering the plain term."""
    if marker_count(t) != 1:
        raise ValueError("expected exactly one R to strip")
    return _strip_spine_marker(t)


def _strip_spine_marker(u: Term) -> Term:
    if u.head is R_DECL:
        return u.children[0]
    if u.head is APP_DECL:
        return ap(_strip_spine_marker(u.children[0]), u.children[1])
    raise ValueError("R is not on the application spine")


def wrap_markers(t: Term, n: int) -> Term:
    for _ in range(n):
        t = R(t)
    return t


def whnf_run(t: Term, fuel: int = DEFAULT_FUEL) -> Trace:
    """Marker-guided reduction of Rt with the whnf presentation, first strategy."""
    if contains_marker(t):
        raise ValueError("term must be R-free")
    return reduce(PRESENTATIONS["whnf"], R(t), "first", fuel)


def whnf(t: Term, fuel: int = DEFAULT_FUEL) -> Optional[Term]:
    """Weak head normal form of an R-free term, or None when fuel runs out."""
    trace = whnf_run(t, fuel)
    if trace.status != NORMAL_FORM:
        return None
    return strip_marker(trace.final)


def gas_trace(t: Term, n: int) -> Trace:
    """The `first` run of R^n t with the gas presentation: a normal form within
    n steps, as each step consumes one R."""
    return reduce(PRESENTATIONS["gas"], wrap_markers(t, n), "first", n)


def whnf_oracle(t: Term, fuel: int = DEFAULT_FUEL) -> Optional[Term]:
    """Head-spine evaluation with no marker machinery, for cross-checking.

    Unwinds the application spine and contracts the head combinator whenever
    it has enough arguments; never looks inside argument positions.
    """
    if contains_marker(t):
        raise ValueError("term must be R-free")
    steps = 0
    while True:
        head, args = t, []
        while head.head is APP_DECL:
            args.append(head.children[1])
            head = head.children[0]
        args.reverse()
        if head.head is S_DECL and len(args) >= 3:
            reduct = ap(ap(args[0], args[2]), ap(args[1], args[2]))
            rest = args[3:]
        elif head.head is K_DECL and len(args) >= 2:
            reduct = args[0]
            rest = args[2:]
        elif head.head is I_DECL and len(args) >= 1:
            reduct = args[0]
            rest = args[1:]
        else:
            return t
        steps += 1
        if steps > fuel:
            return None
        t = reduct
        for a in rest:
            t = ap(t, a)


# ---------------------------------------------------------------------------
# surface syntax: fully parenthesized binary applications over S, K and I, and (R t)


_ATOMS = {"S": S(), "K": K(), "I": I()}
_MARKER = {"R": R}


def _not_a_term(token: str, has_marker: bool) -> str:
    if token == "R":
        return ("R must be applied, as in (R t)" if has_marker
                else "R is not a constructor of the plain calculus")
    if token in (")", ""):
        return "expected a term"
    return f"unknown combinator {token!r}"


def parse_ski(text: str, variant: str = "plain") -> Term:
    has_marker = variant != "plain"
    return read_applications(text, ("(", ")"), _ATOMS, ap, _MARKER if has_marker else {},
                             lambda token: _not_a_term(token, has_marker))


def print_ski(t: Term) -> str:
    return write_applications(t, APP_DECL, (R_DECL,))
