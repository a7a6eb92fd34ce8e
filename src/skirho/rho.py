"""A reflective higher-order process calculus with quotation as names.

Processes are the stopped process, input-guarded continuations, asynchronous
outputs, parallel composition, and dereference of a name; a name is the
quotation of a process (plus bare identifiers for binder occurrences, which
only ever sit at name positions).  Structural congruence makes parallel
composition a commutative monoid with the stopped process as unit and
includes alpha-equivalence; name equivalence additionally collapses
quote-of-dereference.

Names are quasi-atomic: binding acts on whole names at name positions of the
process tree and never reaches inside the contents of a quote that does not
collapse to a dereferenced name.  A binder occurrence is therefore either a
bare identifier or a quote-of-dereference chain that resolves to one.
Communication runs on canonical forms, where every name is resolved and
every binder is a token distinct from the binders around it and from every
free identifier (de Bruijn's nameless dummies).  A reduct is built by one
canonicalizing walk over the remaining components and the continuation,
whose environment maps each identifier to the canonical name it stands for:
the consumed input's binder to the quoted message, every inner binder to
its fresh token.  The tokens avoid the reduct's free identifiers, the
message's among them, so the substitution cannot capture.

A process or name node computes its hash once, at construction, and keeps
its order key, free identifiers and canonical form once asked, synthesized
attributes as on a `core.Term` (Reps, Teitelbaum & Demers 1983): a process
is canonicalized once, and a closed component met again comes straight back.
"""

from __future__ import annotations

from typing import Iterable, Union

from .core import Record, Redex
from .syntax import Cursor


class _Node(Record):
    """A process or name.  `_key`, `_free` and `_canon` hold None until
    asked; a canonical process holds `_CANONICAL`, never itself."""

    __slots__ = _caches = ("_key", "_free", "_canon")
    _rank = 0  # the class's place in the order of `process_key`

    def __repr__(self) -> str:
        """The surface text, or the fields where the grammar cannot print
        the node, as for a process at a name position."""
        try:
            return print_rho_name(self) if isinstance(self, (Quote, Var)) else print_rho(self)
        except TypeError:
            return super().__repr__()


# the slot setters, which bypass Record.__setattr__
_set_key = _Node._key.__set__  # type: ignore[attr-defined]
_set_free = _Node._free.__set__  # type: ignore[attr-defined]
_set_canon = _Node._canon.__set__  # type: ignore[attr-defined]
_CANONICAL = "canonical"


class Zero(_Node):
    __slots__ = ()


class Input(_Node):
    __slots__ = __match_args__ = ("subject", "binder", "body")
    _rank = 3


class Output(_Node):
    __slots__ = __match_args__ = ("subject", "body")
    _rank = 2


class Par(_Node):
    __slots__ = __match_args__ = ("left", "right")
    _rank = 4


class Deref(_Node):
    __slots__ = __match_args__ = ("name",)
    _rank = 1


class Quote(_Node):
    __slots__ = __match_args__ = ("process",)
    _rank = 1


class Var(_Node):
    __slots__ = __match_args__ = ("ident",)


Process = Union[Zero, Input, Output, Par, Deref]
Name = Union[Quote, Var]

ZERO = Zero()


# ---------------------------------------------------------------------------
# structure helpers


def process_key(p: Union[Process, Name]):
    """The fixed order on processes, and on names: the class's rank, then the
    fields' keys; kept on the node."""
    key = p._key
    if key is None:
        key = (p._rank, *[a if a.__class__ is str else process_key(a) for a in p._args])
        _set_key(p, key)
    return key


def par_components(p: Process) -> list[Process]:
    """Flatten nested parallel composition, dropping stopped components."""
    match p:
        case Zero():
            return []
        case Par(l, r):
            return par_components(l) + par_components(r)
        case _:
            return [p]


def par_of(components: Iterable[Process]) -> Process:
    items = list(components)
    if not items:
        return ZERO
    out = items[-1]
    for c in reversed(items[:-1]):
        out = Par(c, out)
    return out


def resolve_name(n: Name) -> Name:
    """Strip quote-of-dereference chains: the quote of a process whose only
    component is a dereference stands for the dereferenced name itself."""
    while isinstance(n, Quote):
        comps = par_components(n.process)
        if len(comps) == 1 and isinstance(comps[0], Deref):
            n = comps[0].name
        else:
            return n
    return n


def free_idents(x: Union[Process, Name]) -> frozenset[str]:
    """Binder identifiers occurring free at reachable name positions of a
    process or a name."""
    bindable, quoted = _free(x)
    return bindable | quoted


def _free(x: Union[Process, Name]) -> tuple[frozenset[str], frozenset[str]]:
    """The free identifiers of x an enclosing input may still bind, and those
    under a quote, which no outer binder reaches; kept on x once found."""
    found = x._free
    if found is not None:
        return found
    match x:
        case Zero():
            found = _CLOSED
        case Par(a, b) | Output(a, b):
            found = _join(_free(a), _free(b))
        case Deref(n):
            found = _free(n)
        case Input(n, binder, body):
            bindable, quoted = _free(body)
            found = _join(_free(n), (bindable - {binder}, quoted))
        case Var(v):
            found = (frozenset((v,)), _NONE)
        case Quote(p):
            r = resolve_name(x)
            found = _free(r) if r is not x else (_NONE, free_idents(p))  # a quote opens a fresh scope
        case _:
            raise TypeError(f"not a process or name: {x!r}")
    _set_free(x, found)
    return found


_NONE: frozenset[str] = frozenset()
_CLOSED = (_NONE, _NONE)


def _join(s: tuple, t: tuple) -> tuple:
    return t if s is _CLOSED else s if t is _CLOSED else (s[0] | t[0], s[1] | t[1])


def is_closed(x: Union[Process, Name]) -> bool:
    return _free(x) == _CLOSED


def all_names(p: Process) -> list[Name]:
    """Every name at a reachable name position, resolved, but an identifier
    an enclosing input binds: the names p can barb on."""
    out: list[Name] = []
    _names_in(p, frozenset(), out)
    return out


def _names_in(x: Union[Process, Name], bound: frozenset[str], out: list[Name]) -> None:
    match x:
        case Par(a, b) | Output(a, b):
            _names_in(a, bound, out)
            _names_in(b, bound, out)
        case Deref(n):
            _names_in(n, bound, out)
        case Input(n, binder, body):
            _names_in(n, bound, out)
            _names_in(body, bound | {binder}, out)
        case Quote() | Var():
            r = resolve_name(x)
            if isinstance(r, Quote):
                out.append(r)
                _names_in(r.process, frozenset(), out)  # a quote opens a fresh scope
            elif r.ident not in bound:
                out.append(r)


# ---------------------------------------------------------------------------
# canonical forms


def canon_process(p: Process) -> Process:
    """Canonical representative of p's structural congruence class.

    Parallel composition is flattened to an ordered unit-free multiset,
    binders are renamed to tokens v0, v1, ... numbered by depth, skipping
    any that is a free identifier, quoted processes are canonicalized
    recursively (in their own scope), and quote-of-dereference collapses at
    name positions.  Idempotent; two processes are congruent iff their
    canonical forms are identical.  Kept on p once computed.
    """
    c = p._canon
    if c is None:
        c = _canon_in(p, {}, 0, free_idents(p))
        _set_canon(p, c)
        _set_canon(c, _CANONICAL)  # after p's: p may be c
        return c
    return p if c is _CANONICAL else c


def canon_name(n: Name) -> Name:
    """The resolved name, a quoted process canonical in its own scope."""
    return _canon_name_in(n, {}, frozenset())


def _canon_in(q: Process, env: dict[str, Name], first: int, avoid: frozenset[str]) -> Process:
    """`env` maps an identifier to the canonical name it stands for.  `first`
    is the least index the next binder token may take: each binder takes an
    index above every enclosing one, so no two tokens collide.  Where no
    token is taken and nothing avoided, a closed process is canonical on its
    own: its kept canonical form serves."""
    match q:
        case Zero():
            return ZERO
        case Par():
            own = not first and not avoid
            comps = [canon_process(c) if own and is_closed(c) else _canon_in(c, env, first, avoid)
                     for c in par_components(q)]
            comps.sort(key=process_key)
            return par_of(comps)
        case Output(x, body):
            return Output(_canon_name_in(x, env, avoid), _canon_in(body, env, first, avoid))
        case Deref(x):
            return Deref(_canon_name_in(x, env, avoid))
        case Input(x, binder, body):
            i = first
            while f"v{i}" in avoid:
                i += 1
            inner = dict(env)
            inner[binder] = Var(f"v{i}")
            return Input(_canon_name_in(x, env, avoid), f"v{i}",
                         _canon_in(body, inner, i + 1, avoid))
    raise TypeError(f"not a process: {q!r}")


def _canon_name_in(n: Name, env: dict[str, Name], avoid: frozenset[str]) -> Name:
    r = resolve_name(n)
    if isinstance(r, Var):
        return env.get(r.ident, r)
    return Quote(_canon_in(r.process, {}, 0, avoid) if avoid else canon_process(r.process))


# ---------------------------------------------------------------------------
# reduction


def comm_step(p: Process) -> set[Process]:
    """All single-step reducts of a process, as canonical forms.

    Pairs each top-level input component with each top-level output
    component on a name-equivalent subject; the pair is replaced by the
    continuation with the quoted output body bound to the binder.
    """
    return _reducts(canon_process(p))


def _reducts(p: Process) -> set[Process]:
    """Each reduct is one canonicalizing walk over the other components and
    the continuation, with the binder mapped to the canonical message.  The
    binder is a token of canonical p, so it is free in no other component,
    and the walk avoids the free identifiers of the reduct, not those of p."""
    comps = par_components(p)
    out: set[Process] = set()
    for i, ci in enumerate(comps):
        if not isinstance(ci, Input):
            continue
        for j, cj in enumerate(comps):
            if i == j or not isinstance(cj, Output):
                continue
            if ci.subject != cj.subject:  # components are canonical
                continue
            reduct = par_of([c for k, c in enumerate(comps) if k not in (i, j)] + [ci.body])
            avoid = free_idents(reduct)
            env: dict[str, Name] = {}
            if ci.binder in avoid:
                avoid = avoid - {ci.binder} | free_idents(cj.body)
                env[ci.binder] = _canon_name_in(Quote(cj.body), {}, avoid)
            reduct = _canon_in(reduct, env, 0, avoid)
            _set_canon(reduct, _CANONICAL)
            out.add(reduct)
    return out


COMM = Redex("comm", (), {})


def comm_edges(p: Process) -> list[tuple[Redex, Process]]:
    """The reducts of a canonical closed process in the fixed process order,
    each labelled with the one communication redex."""
    return [(COMM, q) for q in sorted(_reducts(p), key=process_key)]


def parse_closed(text: str) -> Process:
    """A closed process from its surface syntax; ValueError if it is open."""
    p = parse_rho(text)
    if not is_closed(p):
        raise ValueError("process must be closed")
    return p


def barbs(p: Process, names: tuple) -> frozenset:
    """Subjects of the canonical p's top-level outputs among `names`."""
    return frozenset(c.subject for c in par_components(p)
                     if isinstance(c, Output) and c.subject in names)


# ---------------------------------------------------------------------------
# surface syntax: ``&P`` quotes, ``*x`` dereferences, ``for(y <- x)P``
# receives, ``x!P`` sends, and ``|`` composes in parallel with the lowest
# precedence (right associated); quotation binds tighter than ``!``


_RHO_SYMBOLS = ("<-", "(", ")", "!", "|", "*", "&")
_RHO_NOT_IDENTS = frozenset(_RHO_SYMBOLS + ("for", "0", ""))  # the tokens that are not identifiers


def parse_rho(text: str) -> Process:
    cur = Cursor(text, _RHO_SYMBOLS)
    result = _read(cur, 0)
    cur.done()
    return result


def _read(cur: Cursor, level: int) -> Process:
    """A process at precedence `level`: 0 a ``|`` composition, 1 an output
    ``x!P``, 2 a primary: ``0``, ``for(y <- x)P``, ``*x`` or ``(P)``."""
    if level == 0:
        parts = [_read(cur, 1)]
        while cur.peek() == "|":
            cur.next()
            parts.append(_read(cur, 1))
        return par_of(parts)
    tok = cur.peek()
    if level == 1 and (tok == "&" or tok not in _RHO_NOT_IDENTS):
        subject = _rho_name(cur)
        cur.expect("!")
        return Output(subject, _read(cur, 1))
    if tok == "0":
        cur.next()
        return ZERO
    if tok == "for":
        cur.next()
        cur.expect("(")
        binder = _rho_ident(cur)
        cur.expect("<-")
        subject = _rho_name(cur)
        cur.expect(")")
        return Input(subject, binder, _read(cur, 1))
    if tok == "*":
        cur.next()
        return Deref(_rho_name(cur))
    if tok == "(":
        cur.next()
        inner = _read(cur, 0)
        cur.expect(")")
        return inner
    cur.fail(f"expected a process, found {tok or 'end of input'!r}")


def _rho_name(cur: Cursor) -> Name:
    if cur.peek() == "&":
        cur.next()
        return Quote(_read(cur, 2))
    return Var(_rho_ident(cur, "a name"))


def _rho_ident(cur: Cursor, what: str = "an identifier") -> str:
    tok = cur.peek()
    if tok not in _RHO_NOT_IDENTS:
        cur.next()
        return tok
    cur.fail(f"expected {what}, found {tok or 'end of input'!r}")


def print_rho(p: Process) -> str:
    return _write(p, 0)


def _write(p: Process, level: int) -> str:
    """The text of p at precedence `level`, the levels `_read` reads:
    parenthesized where p's own level is lower."""
    match p:
        case Zero():
            return "0"
        case Par(l, r):
            text, own = f"{_write(l, 1)} | {_write(r, 0)}", 0
        case Output(x, body):
            text, own = f"{print_rho_name(x)}!{_write(body, 1)}", 1
        case Input(x, binder, body):
            return f"for({binder} <- {print_rho_name(x)}){_write(body, 1)}"
        case Deref(x):
            return f"*{print_rho_name(x)}"
        case _:
            raise TypeError(f"not a process: {p!r}")
    return text if level <= own else f"({text})"


def print_rho_name(n: Name) -> str:
    match n:
        case Var(v):
            return v
        case Quote(p):
            return f"&{_write(p, 2)}"
    raise TypeError(f"not a name: {n!r}")


def parse_rho_name(text: str) -> Name:
    """Parse a single name literal such as ``&0`` or ``&(a!0 | 0)``."""
    cur = Cursor(text, _RHO_SYMBOLS)
    name = _rho_name(cur)
    cur.done()
    return name
