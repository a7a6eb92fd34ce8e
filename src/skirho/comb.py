"""Combinators for the reflective process calculus, and both translations.

The combinator signature is `ski`'s sort, S, K, I and binary application,
with seven more nullary constructors.  Parallel composition is curried
application of the ``|`` constructor and forms a commutative monoid with
unit ``0``; communication and quote evaluation are guarded by a linear
context resource ``C``, while the S/K/I rules fire in any context.
Translation from the calculus eliminates binders by bracket abstraction;
translation back inverts it, reading the constructors off the image and
each input continuation applied to its binder's name token, and runs the
rewriting engine only where an S/K/I redex remains.  Sort inference unifies
by binding mutable sort variables in place.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from . import rho
from .core import (
    NORMAL_FORM,
    AcuGroup,
    CongruenceSpec,
    ConstructorDecl,
    FuelExhausted,
    MetaVar,
    Presentation,
    Record,
    RewriteRule,
    Sort,
    Term,
    TranslationError,
    canonicalize,
    flatten_term,
    group_join,
    is_normal,
    leaf,
    reduce,
    subterms,
)
from .rho import Deref, Input, Output, Par, Process, Quote, Var, ZERO as RHO_ZERO
from .ski import APP_DECL, I_DECL, K_DECL, S_DECL, T, ap
from .syntax import read_applications, write_applications

C_DECL = ConstructorDecl("C", (), T)
ZERO_DECL = ConstructorDecl("0", (), T)
PAR_DECL = ConstructorDecl("|", (), T)
FOR_DECL = ConstructorDecl("for", (), T)
BANG_DECL = ConstructorDecl("!", (), T)
AMP_DECL = ConstructorDecl("&", (), T)
STAR_DECL = ConstructorDecl("*", (), T)

ATOM_DECLS = (C_DECL, ZERO_DECL, PAR_DECL, FOR_DECL, BANG_DECL, AMP_DECL,
              STAR_DECL, S_DECL, K_DECL, I_DECL)

NAME_TOKEN_PREFIX = "$"

STRUCTURAL_RULES = ("sigma", "kappa", "iota")
NON_COMM_RULES = ("sigma", "kappa", "iota", "epsilon")

DEFAULT_FUEL = 2000

_OUT_OF_FUEL = "ran out of fuel unwinding S/K/I applications"


def atom(decl: ConstructorDecl) -> Term:
    """The one term of the atom `decl`, shared by every combinator built here."""
    return leaf(decl)


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


def wrap_context(t: Term) -> Term:
    return aps(atom(PAR_DECL), atom(C_DECL), t)


_P, _Q, _R = MetaVar("P", T), MetaVar("Q", T), MetaVar("R", T)
_AMP = atom(AMP_DECL)
_PAR = AcuGroup(APP_DECL, atom(PAR_DECL), atom(ZERO_DECL))

PRESENTATION = Presentation(
    sorts=(T,),
    constructors=ATOM_DECLS + (APP_DECL,),
    congruence=CongruenceSpec(
        acu_groups=(_PAR,),
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
    out = _abstract(NAME_TOKEN_PREFIX + ident, c)
    return ap(atom(K_DECL), c) if out is None else out


def _abstract(token: str, c: Term) -> Optional[Term]:
    """The bracket abstraction of `token` in c, or None when c lacks it."""
    if not c.children:
        return atom(I_DECL) if c.head.name == token else None
    parts = [_abstract(token, child) for child in c.children]
    if all(part is None for part in parts):
        return None
    if c.head != APP_DECL:
        raise TranslationError(f"name token {token[len(NAME_TOKEN_PREFIX):]} "
                               f"under non-application {c.head.name}")
    f, x = (ap(atom(K_DECL), child) if part is None else part for part, child in zip(parts, c.children))
    return aps(atom(S_DECL), f, x)


# ---------------------------------------------------------------------------
# sorting


class ArrowSort(Record):
    __slots__ = __match_args__ = ("arg", "res")

    def __repr__(self) -> str:
        arg = f"({self.arg!r})" if isinstance(self.arg, ArrowSort) else repr(self.arg)
        return f"{arg} => {self.res!r}"


class SortVar(Record):
    __slots__ = __match_args__ = ("name",)

    def __repr__(self) -> str:
        return f"'{self.name}"


SortExpr = Union[Sort, ArrowSort, SortVar]

W = Sort("W")
N = Sort("N")


class SortScheme(Record):
    __slots__ = __match_args__ = ("quantified", "body")


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


def _instantiator(scheme: SortScheme):
    """A function from the variable counter to a fresh instance of `scheme`,
    its quantified variables numbered in the order they are listed."""
    if not scheme.quantified:
        shared = _instance(scheme.body, {})  # no variables: nothing in it is ever bound
        return lambda counter: shared
    return lambda counter: _instance(scheme.body, {q: _Var(next(counter)) for q in scheme.quantified})


_INSTANTIATORS = {name: _instantiator(scheme) for name, scheme in SORT_TABLE.items()}


def _infer(u: Term, counter) -> object:
    """The sort of u.  An application spine is read head first, then each
    argument with its result variable, the order `_unify(fun, (arg, res))`
    numbered them in; the result variable is fresh, so it needs no occurs
    check and is bound to, or from, the function's range as `_unify` would."""
    args = []
    while u.head == APP_DECL:
        args.append(u.children[1])
        u = u.children[0]
    instantiate = _INSTANTIATORS.get(u.head.name)
    if instantiate is not None:
        s = instantiate(counter)
    elif is_name_token(u):
        s = N
    else:
        raise _UnifyError
    for x in reversed(args):
        arg = _infer(x, counter)
        res = _Var(next(counter))
        fun = _find(s)
        if fun.__class__ is tuple:
            _unify(fun[0], arg)
            rng = _find(fun[1])
            if rng.__class__ is _Var:
                rng.ref = res
            else:
                res.ref = rng
        elif fun.__class__ is _Var and not _occurs(fun, arg):
            fun.ref = (arg, res)
        else:
            raise _UnifyError
        s = res
    return s


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

    The image is read by inverting bracket abstraction: constructors are read
    off, each input continuation is applied to the name token of its binder,
    and a token at a name position is read as the bound name.  The rewriting
    engine runs only where an S/K/I redex remains, and the fuel spent is the
    count of S/K/I steps the `first` strategy takes, whichever way a
    subterm is normalized.  A token under a quote has no process counterpart
    and raises TranslationError.  Spending more than `fuel` S/K/I steps
    raises FuelExhausted.
    """
    tokens = False
    for u in subterms(c):
        if u.head == C_DECL:
            raise TranslationError("combinator must not mention the context resource")
        tokens = tokens or is_name_token(u)
    if tokens:
        raise TranslationError("combinator must be translation-complete (no name tokens)")
    if sort_infer(c) != W:
        raise TranslationError("combinator is not W-sorted")
    budget = [fuel]
    p = _backinterp(_skinormal(c, budget), budget, 0)
    if not rho.is_closed(p):
        raise TranslationError("a bound name occurs under a quote")
    return rho.canon_process(p)


def _skinormal(c: Term, budget: list[int]) -> Term:
    """The canonical S/K/I normal form of c, taking from `budget` the steps
    the `first` strategy takes to it; FuelExhausted when they are more.

    A group is normalized element by element: no S/K/I redex spans two
    elements, and `first` spends on each element what it would spend on it
    alone.  An abstraction skeleton applied to a normal argument is read by
    `_read_skeleton`, before the normality test, which would enumerate the
    redex it is.  A normal term is returned as it is, and the rewriting
    engine runs on the rest."""
    c = canon(c)
    comps = par_components(c)
    if len(comps) > 1:
        if not is_normal(PRESENTATION, c, STRUCTURAL_RULES):
            c = canon(group_join(_PAR, [_skinormal(e, budget) for e in comps]))
    elif (read := _read_skeleton(c)) is not None:
        c = read[0]
        budget[0] -= read[1]
    elif not is_normal(PRESENTATION, c, STRUCTURAL_RULES):
        trace = reduce(PRESENTATION, c, "first", max(budget[0], 0), rules=STRUCTURAL_RULES)
        if trace.status != NORMAL_FORM:
            raise FuelExhausted(_OUT_OF_FUEL)
        c = trace.final
        budget[0] -= len(trace.steps)
    if budget[0] < 0:
        raise FuelExhausted(_OUT_OF_FUEL)
    return c


def _read_skeleton(c: Term) -> Optional[tuple[Term, int]]:
    """``(M, n)`` when canonical c is ``(k a)`` with k an abstraction skeleton
    and a normal, and `_unabstract` makes of it a body M that is normal once
    canonical; else None.  No redex is erased or copied then, so `first`
    takes n steps from c to M, one per S, K or I node of k."""
    if c.head != APP_DECL or not is_normal(PRESENTATION, c.children[1], STRUCTURAL_RULES):
        return None
    read = _unabstract(*c.children)
    if read is None:
        return None
    body = canon(read[0])
    return (body, read[1]) if is_normal(PRESENTATION, body, STRUCTURAL_RULES) else None


def _unabstract(k: Term, a: Term) -> Optional[tuple[Term, int]]:
    """``(M, n)`` when k is an abstraction skeleton, as `_abstract` builds:
    ``I``, ``(K d)``, or ``((S f) g)`` with f and g skeletons.  M is ``(k a)``
    with its n S, K and I nodes consumed: ``(I a)`` is a, ``((K d) a)`` is d,
    and ``(((S f) g) a)`` is ``((f a) (g a))``.  None for any other k.  It
    recurses only into arguments, as `sort_infer` does."""
    if k.head == I_DECL:
        return a, 1
    if k.head != APP_DECL:
        return None
    f, g = k.children
    if f.head == K_DECL:
        return g, 1
    if f.head != APP_DECL or f.children[0].head != S_DECL:
        return None
    left = _unabstract(f.children[1], a)
    right = None if left is None else _unabstract(g, a)
    if right is None:
        return None
    return ap(left[0], right[0]), left[1] + right[1] + 1


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
    if t == _PAR.unit:
        return [t]
    comps = flatten_term(_PAR, t)
    return comps if comps else [_PAR.unit]


def barbs(t: Term, names: tuple) -> frozenset:
    """Subjects ``x`` of the canonical t's components ``((! x) P)`` among `names`."""
    found = set()
    for c in par_components(t):
        if c.head == APP_DECL and c.children[0].head == APP_DECL:
            send, subject = c.children[0].children
            if send.head == BANG_DECL and subject in names:
                found.add(subject)
    return frozenset(found)


def all_names(t: Term) -> list[Term]:
    """Every quote ``(& P)`` in the canonical t, in pre-order: the names t
    can barb on."""
    return [u for u in subterms(t) if u.head == APP_DECL and u.children[0].head == AMP_DECL]


def unwrap_context(t: Term) -> Optional[Term]:
    """Remove the single context resource from a wrapped parallel group."""
    comps = par_components(t)
    rest = [c for c in comps if c.head != C_DECL]
    if len(rest) == len(comps) - 1:
        return group_join(_PAR, rest)
    return None


# ---------------------------------------------------------------------------
# surface syntax: fully parenthesized binary applications over the atoms


_COMB_ATOMS = {decl.name: atom(decl) for decl in ATOM_DECLS}


def parse_comb(text: str) -> Term:
    return read_applications(text, ("(", ")", "|", "!", "&", "*"), _COMB_ATOMS, ap, {}, _not_a_combinator)


def _not_a_combinator(token: str) -> str:
    return f"expected a combinator atom or '(', found {token or 'end of input'!r}"


def print_comb(t: Term) -> str:
    return write_applications(t, APP_DECL)
