"""Combinators for the reflective process calculus, and both translations.

The combinator signature has eleven nullary constructors and binary
application.  Parallel composition is curried application of the ``|``
constructor and forms a commutative monoid with unit ``0``; communication
and quote evaluation are guarded by a linear context resource ``C``, while
the S/K/I rules fire in any context.  Translation from the calculus
eliminates binders by bracket abstraction; translation back normalizes the
S/K/I spines once, reads the constructors off the normal form, and normalizes
again only each input continuation applied to its binder's name token.  Sort
inference unifies by binding mutable sort variables in place.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass
from typing import Optional, Union

from . import rho
from .core import (
    AcuGroup,
    CongruenceSpec,
    ConstructorDecl,
    FuelExhausted,
    MetaVar,
    Presentation,
    RewriteRule,
    Sort,
    Term,
    canonicalize,
    flatten_term,
    group_join,
    reduce,
    replace_at,
    subterm_at,
)
from .rho import Deref, Input, Output, Par, Process, Quote, Var, ZERO as RHO_ZERO

T = Sort("T")

C_DECL = ConstructorDecl("C", (), T)
ZERO_DECL = ConstructorDecl("0", (), T)
PAR_DECL = ConstructorDecl("|", (), T)
FOR_DECL = ConstructorDecl("for", (), T)
BANG_DECL = ConstructorDecl("!", (), T)
AMP_DECL = ConstructorDecl("&", (), T)
STAR_DECL = ConstructorDecl("*", (), T)
S_DECL = ConstructorDecl("S", (), T)
K_DECL = ConstructorDecl("K", (), T)
I_DECL = ConstructorDecl("I", (), T)
APP_DECL = ConstructorDecl("app", (T, T), T)

ATOM_DECLS = (C_DECL, ZERO_DECL, PAR_DECL, FOR_DECL, BANG_DECL, AMP_DECL,
              STAR_DECL, S_DECL, K_DECL, I_DECL)

NAME_TOKEN_PREFIX = "$"

STRUCTURAL_RULES = ("sigma", "kappa", "iota")
NON_COMM_RULES = ("sigma", "kappa", "iota", "epsilon")

DEFAULT_FUEL = 2000


class TranslationError(Exception):
    pass


def atom(decl: ConstructorDecl) -> Term:
    return Term(decl)


def ap(f: Term, x: Term) -> Term:
    return Term(APP_DECL, (f, x))


def aps(*terms: Term) -> Term:
    out = terms[0]
    for t in terms[1:]:
        out = ap(out, t)
    return out


def name_token(ident: str) -> Term:
    """A free name token, only present mid-translation."""
    return Term(ConstructorDecl(NAME_TOKEN_PREFIX + ident, (), T))


def is_name_token(t: Term) -> bool:
    return not t.children and t.head.name.startswith(NAME_TOKEN_PREFIX)


def contains_name_token(t: Term, ident: Optional[str] = None) -> bool:
    if is_name_token(t) and (ident is None or t.head.name == NAME_TOKEN_PREFIX + ident):
        return True
    return any(contains_name_token(c, ident) for c in t.children)


def contains_constructor(t: Term, decl: ConstructorDecl) -> bool:
    return t.head == decl or any(contains_constructor(c, decl) for c in t.children)


def wrap_context(t: Term) -> Term:
    return aps(atom(PAR_DECL), atom(C_DECL), t)


_P, _Q, _R = MetaVar("P", T), MetaVar("Q", T), MetaVar("R", T)
_AMP = atom(AMP_DECL)

PRESENTATION = Presentation(
    sorts=(T,),
    constructors=ATOM_DECLS + (APP_DECL,),
    congruence=CongruenceSpec(
        acu_groups=(AcuGroup(app=APP_DECL, operator=atom(PAR_DECL), unit=atom(ZERO_DECL)),),
    ),
    rules=(
        RewriteRule("sigma", aps(atom(S_DECL), _P, _Q, _R), ap(ap(_P, _R), ap(_Q, _R))),
        RewriteRule("kappa", aps(atom(K_DECL), _P, _Q), _P),
        RewriteRule("iota", ap(atom(I_DECL), _P), _P),
        RewriteRule(
            "xi",
            wrap_context(aps(atom(PAR_DECL),
                             aps(atom(FOR_DECL), ap(_AMP, _P), _Q),
                             aps(atom(BANG_DECL), ap(_AMP, _P), _R))),
            wrap_context(ap(_Q, ap(_AMP, _R))),
        ),
        RewriteRule("epsilon", wrap_context(ap(atom(STAR_DECL), ap(_AMP, _P))), wrap_context(_P)),
    ),
)


def comb_presentation() -> Presentation:
    """The combinator presentation, the module constant PRESENTATION."""
    return PRESENTATION


def canon(t: Term) -> Term:
    return canonicalize(PRESENTATION, t)


# ---------------------------------------------------------------------------
# calculus -> combinators


def interp(p: Process) -> Term:
    """Translate a closed process into a combinator with no bound names."""
    if not rho.is_closed(p):
        raise TranslationError("process must be closed")
    return _interp(rho.canon_process(p))


def _interp(p: Process) -> Term:
    match p:
        case rho.Zero():
            return atom(ZERO_DECL)
        case Par(l, r):
            return aps(atom(PAR_DECL), _interp(l), _interp(r))
        case Output(x, body):
            return aps(atom(BANG_DECL), interp_name(x), _interp(body))
        case Input(x, binder, body):
            return aps(atom(FOR_DECL), interp_name(x),
                       abstract_elim(binder, _interp(body)))
        case Deref(x):
            return ap(atom(STAR_DECL), interp_name(x))
    raise TypeError(f"not a process: {p!r}")


def interp_name(n: rho.Name) -> Term:
    """Translate a name: a free identifier becomes a name token.  Unlike
    `interp`, a quoted process is neither checked for closedness nor
    canonicalized."""
    r = rho.resolve_name(n)
    if isinstance(r, Var):
        return name_token(r.ident)
    return ap(atom(AMP_DECL), _interp(r.process))


def abstract_elim(ident: str, c: Term) -> Term:
    """Eliminate the free name token `ident` by bracket abstraction.

    Yields (K c) when the token is absent, I at the token itself, and an S
    split at applications; the result contains no occurrence of the token.
    """
    token = NAME_TOKEN_PREFIX + ident
    if not contains_name_token(c, ident):
        return ap(atom(K_DECL), c)
    if c.head.name == token and not c.children:
        return atom(I_DECL)
    if c.head == APP_DECL:
        return aps(atom(S_DECL),
                   abstract_elim(ident, c.children[0]),
                   abstract_elim(ident, c.children[1]))
    raise TranslationError(f"name token {ident} under non-application {c.head.name}")


# ---------------------------------------------------------------------------
# sorting


@dataclass(frozen=True)
class BaseSort:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrowSort:
    arg: "SortExpr"
    res: "SortExpr"

    def __repr__(self) -> str:
        arg = f"({self.arg!r})" if isinstance(self.arg, ArrowSort) else repr(self.arg)
        return f"{arg} => {self.res!r}"


@dataclass(frozen=True)
class SortVar:
    name: str

    def __repr__(self) -> str:
        return f"'{self.name}"


SortExpr = Union[BaseSort, ArrowSort, SortVar]

W = BaseSort("W")
N = BaseSort("N")


@dataclass(frozen=True)
class SortScheme:
    quantified: tuple[str, ...]
    body: SortExpr


def _arrows(*sorts: SortExpr) -> SortExpr:
    out = sorts[-1]
    for s in reversed(sorts[:-1]):
        out = ArrowSort(s, out)
    return out


SORT_TABLE: dict[str, SortScheme] = {
    "C": SortScheme((), W),
    "0": SortScheme((), W),
    "|": SortScheme((), _arrows(W, W, W)),
    "for": SortScheme((), _arrows(N, ArrowSort(N, W), W)),
    "!": SortScheme((), _arrows(N, W, W)),
    "&": SortScheme((), ArrowSort(W, N)),
    "*": SortScheme((), ArrowSort(N, W)),
    "S": SortScheme(("X", "Y", "Z"),
                    _arrows(_arrows(SortVar("Z"), SortVar("Y"), SortVar("X")),
                            ArrowSort(SortVar("Z"), SortVar("Y")),
                            SortVar("Z"), SortVar("X"))),
    "K": SortScheme(("X", "Y"), _arrows(SortVar("X"), SortVar("Y"), SortVar("X"))),
    "I": SortScheme(("X",), ArrowSort(SortVar("X"), SortVar("X"))),
}


class _UnifyError(Exception):
    pass


class _Var:
    """A sort variable of one inference, bound in place: `ref` is its value
    once unified; an arrow is a pair ``(arg, res)`` meanwhile."""

    __slots__ = ("n", "ref")

    def __init__(self, n: int) -> None:
        self.n, self.ref = n, None


def _find(s):
    while s.__class__ is _Var and s.ref is not None:
        s = s.ref
    return s


def _occurs(v: _Var, s) -> bool:
    s = _find(s)
    if s.__class__ is tuple:
        return _occurs(v, s[0]) or _occurs(v, s[1])
    return s is v


def _unify(a, b) -> None:
    a, b = _find(a), _find(b)
    if a is b:
        return
    if a.__class__ is _Var:
        if _occurs(a, b):
            raise _UnifyError
        a.ref = b
    elif b.__class__ is _Var:
        _unify(b, a)
    elif a.__class__ is tuple and b.__class__ is tuple:
        _unify(a[0], b[0])
        _unify(a[1], b[1])
    else:
        raise _UnifyError


def _instance(s: SortExpr, fresh: dict[str, _Var]):
    if s.__class__ is SortVar:
        return fresh[s.name]
    if s.__class__ is ArrowSort:
        return _instance(s.arg, fresh), _instance(s.res, fresh)
    return s


def _infer(u: Term, counter) -> object:
    if is_name_token(u):
        return N
    if u.head == APP_DECL:
        fun = _infer(u.children[0], counter)
        arg = _infer(u.children[1], counter)
        res = _Var(next(counter))
        _unify(fun, (arg, res))
        return res
    scheme = SORT_TABLE.get(u.head.name)
    if scheme is None:
        raise _UnifyError
    return _instance(scheme.body, {q: _Var(next(counter)) for q in scheme.quantified})


def _export(s) -> SortExpr:
    s = _find(s)
    if s.__class__ is tuple:
        return ArrowSort(_export(s[0]), _export(s[1]))
    return SortVar(f"t{s.n}") if s.__class__ is _Var else s


def sort_infer(t: Term) -> Optional[SortExpr]:
    """Principal sort of a combinator, or None when it is not sortable.

    S, K, and I are instantiated at fresh sort variables per occurrence; name
    tokens have the name sort.  Unification binds the variables in place.
    """
    try:
        return _export(_infer(t, itertools.count()))
    except _UnifyError:
        return None


# ---------------------------------------------------------------------------
# combinators -> calculus


def backinterp(c: Term, fuel: int = DEFAULT_FUEL) -> Process:
    """Translate a context-free, W-sorted combinator back into a process.

    S/K/I spines are reduced before constructors are read off; each input
    continuation is applied to the name token of its binder, the inverse of
    bracket abstraction, and a token at a name position is read as the bound
    name.  A token under a quote has no process counterpart and raises
    TranslationError.  Spending more than `fuel` S/K/I steps raises
    FuelExhausted.
    """
    if contains_constructor(c, C_DECL):
        raise TranslationError("combinator must not mention the context resource")
    if contains_name_token(c):
        raise TranslationError("combinator must be translation-complete (no name tokens)")
    if sort_infer(c) != W:
        raise TranslationError("combinator is not W-sorted")
    budget = [fuel]
    p = _backinterp(_skinormal(c, budget), budget, 0)
    if not rho.is_closed(p):
        raise TranslationError("a bound name occurs under a quote")
    return rho.canon_process(p)


def _skinormal(c: Term, budget: list[int]) -> Term:
    trace = reduce(PRESENTATION, c, "first", max(budget[0], 0), rules=STRUCTURAL_RULES)
    budget[0] -= len(trace.steps)
    if trace.status != "normal_form" or budget[0] < 0:
        raise FuelExhausted("ran out of fuel unwinding S/K/I applications")
    return trace.final


def quote_subterms(t: Term) -> list[Term]:
    """Every quoted combinator ``q`` of a subterm ``(& q)``, in pre-order."""
    out = []
    if t.head == APP_DECL and t.children[0].head == AMP_DECL and not t.children[0].children:
        out.append(t.children[1])
    for ch in t.children:
        out.extend(quote_subterms(ch))
    return out


def _backinterp(c: Term, budget: list[int], depth: int) -> Process:
    """Read a canonical S/K/I-normal combinator as a process under `depth`
    enclosing inputs.  Its subterms are canonical and normal too; only an
    input body is normalized again."""
    comps = par_components(c)
    if len(comps) != 1:
        return rho.par_of([_backinterp(e, budget, depth) for e in comps])
    (c,) = comps
    if c.head == ZERO_DECL:
        return RHO_ZERO
    if c.head == APP_DECL:
        fun, arg = c.children
        if fun.head == STAR_DECL:
            return Deref(_name(arg, budget, depth))
        if fun.head == APP_DECL:
            head, first = fun.children
            if head.head == BANG_DECL:
                return Output(_name(first, budget, depth), _backinterp(arg, budget, depth))
            if head.head == FOR_DECL:
                subject = _name(first, budget, depth)
                binder = f"y{depth}"
                body = _skinormal(ap(arg, name_token(binder)), budget)
                return Input(subject, binder, _backinterp(body, budget, depth + 1))
    raise TranslationError(f"no translation clause applies to {c!r}")


def _name(t: Term, budget: list[int], depth: int) -> rho.Name:
    if is_name_token(t):
        return Var(t.head.name[len(NAME_TOKEN_PREFIX):])
    if t.head == APP_DECL and t.children[0].head == AMP_DECL:
        return Quote(_backinterp(t.children[1], budget, depth))
    raise TranslationError(f"expected a quoted combinator, got {t!r}")


def par_components(t: Term) -> list[Term]:
    """The components of a parallel group; the unit alone is one component."""
    group = PRESENTATION.congruence.acu_groups[0]
    if t == group.unit:
        return [t]
    comps = flatten_term(group, t)
    return comps if comps else [group.unit]


# ---------------------------------------------------------------------------
# seeded generation


def random_sorted_comb(rng: _random.Random, depth: int = 3, expansions: int = 3) -> Term:
    """Seeded W-sorted context-free combinator with embedded S/K/I spines.

    Starts from the translation of a random closed process, then wraps random
    subterms in identity and constant applications (and occasionally an S
    split) that reduce back to the original.
    """
    t = interp(rho.random_process(rng, depth))
    for _ in range(rng.randint(0, expansions)):
        t = _expand_once(t, rng)
    return t


def _positions_of(t: Term) -> list[tuple[int, ...]]:
    out = [()]
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in _positions_of(c))
    return out


def _junk(rng: _random.Random) -> Term:
    t = interp(rho.random_process(rng, 1))
    if rng.random() < 0.5:
        return ap(atom(AMP_DECL), t)
    return t


def _expand_once(t: Term, rng: _random.Random) -> Term:
    pos = rng.choice(_positions_of(t))
    sub = subterm_at(t, pos)
    kind = rng.choice(["i", "k", "s"])
    if kind == "i":
        new = ap(atom(I_DECL), sub)
    elif kind == "k":
        new = aps(atom(K_DECL), sub, _junk(rng))
    elif kind == "s" and sub.head == APP_DECL:
        f, a = sub.children
        new = aps(atom(S_DECL), ap(atom(K_DECL), f), ap(atom(K_DECL), a), _junk(rng))
    else:
        new = ap(atom(I_DECL), sub)
    return replace_at(t, pos, new)


def unwrap_context(t: Term) -> Optional[Term]:
    """Remove the single context resource from a wrapped parallel group."""
    comps = par_components(t)
    rest = [c for c in comps if c.head != C_DECL]
    if len(rest) == len(comps) - 1:
        return group_join(PRESENTATION.congruence.acu_groups[0], rest)
    return None
