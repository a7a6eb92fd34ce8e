"""A reflective higher-order process calculus with quotation as names.

Processes are the stopped process, input-guarded continuations, asynchronous
outputs, parallel composition, and dereference of a name; a name is the
quotation of a process (plus bare identifiers for binder occurrences, which
only ever sit at name positions).  Structural congruence makes parallel
composition a commutative monoid with the stopped process as unit and
includes alpha-equivalence; name equivalence additionally collapses
quote-of-dereference.

Names are quasi-atomic: substitution and binding act on whole names at name
positions of the process tree and never reach inside the contents of a quote
that does not collapse to a dereferenced name.  A binder occurrence is
therefore either a bare identifier or a quote-of-dereference chain that
resolves to one.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import Redex, Trace, drive


@dataclass(frozen=True)
class Zero:
    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Input:
    subject: "Name"
    binder: str
    body: "Process"

    def __repr__(self) -> str:
        return f"for({self.binder} <- {self.subject!r}){self.body!r}"


@dataclass(frozen=True)
class Output:
    subject: "Name"
    body: "Process"

    def __repr__(self) -> str:
        return f"{self.subject!r}!({self.body!r})"


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True)
class Deref:
    name: "Name"

    def __repr__(self) -> str:
        return f"*{self.name!r}"


@dataclass(frozen=True)
class Quote:
    process: "Process"

    def __repr__(self) -> str:
        return f"&({self.process!r})"


@dataclass(frozen=True)
class Var:
    ident: str

    def __repr__(self) -> str:
        return self.ident


Process = Union[Zero, Input, Output, Par, Deref]
Name = Union[Quote, Var]

ZERO = Zero()


# ---------------------------------------------------------------------------
# structure helpers


def process_key(p: Process):
    match p:
        case Zero():
            return (0,)
        case Deref(n):
            return (1, name_key(n))
        case Output(x, body):
            return (2, name_key(x), process_key(body))
        case Input(x, binder, body):
            return (3, name_key(x), binder, process_key(body))
        case Par(l, r):
            return (4, process_key(l), process_key(r))
    raise TypeError(f"not a process: {p!r}")


def name_key(n: Name):
    match n:
        case Var(v):
            return (0, v)
        case Quote(p):
            return (1, process_key(p))
    raise TypeError(f"not a name: {n!r}")


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


def free_idents(p: Process) -> frozenset[str]:
    """Binder identifiers occurring free at reachable name positions."""
    # recursion is at module level: nested recursive functions leave cycles
    return _free_in(p, frozenset())


def _free_in(q: Process, bound: frozenset[str]) -> frozenset[str]:
    match q:
        case Zero():
            return frozenset()
        case Par(l, r):
            return _free_in(l, bound) | _free_in(r, bound)
        case Output(x, body):
            return _free_in_name(x, bound) | _free_in(body, bound)
        case Deref(x):
            return _free_in_name(x, bound)
        case Input(x, binder, body):
            return _free_in_name(x, bound) | _free_in(body, bound | {binder})
    raise TypeError(f"not a process: {q!r}")


def _free_in_name(n: Name, bound: frozenset[str]) -> frozenset[str]:
    r = resolve_name(n)
    if isinstance(r, Var):
        return frozenset() if r.ident in bound else frozenset((r.ident,))
    return _free_in(r.process, frozenset())  # a quote opens a fresh scope


def is_closed(p: Process) -> bool:
    return not free_idents(p)


def all_names(p: Process) -> list[Name]:
    """Every name at a reachable name position, resolved; binders as idents."""
    out: list[Name] = []
    _names_in(p, out)
    return out


def _names_in(q: Process, out: list[Name]) -> None:
    match q:
        case Zero():
            pass
        case Par(l, r):
            _names_in(l, out)
            _names_in(r, out)
        case Output(x, body):
            _name_and_names_in(x, out)
            _names_in(body, out)
        case Deref(x):
            _name_and_names_in(x, out)
        case Input(x, binder, body):
            _name_and_names_in(x, out)
            out.append(Var(binder))
            _names_in(body, out)


def _name_and_names_in(n: Name, out: list[Name]) -> None:
    r = resolve_name(n)
    out.append(r)
    if isinstance(r, Quote):
        _names_in(r.process, out)


# ---------------------------------------------------------------------------
# canonical forms


def canon_process(p: Process) -> Process:
    """Canonical representative of p's structural congruence class.

    Parallel composition is flattened to an ordered unit-free multiset,
    binders are renamed to depth-indexed identifiers, quoted processes are
    canonicalized recursively (in their own scope), and quote-of-dereference
    collapses at name positions.  Idempotent; two processes are congruent iff
    their canonical forms are identical.
    """
    return _canon_in(p, {}, 0, free_idents(p))


def _token(depth: int, avoid: frozenset[str]) -> str:
    i = depth
    while f"v{i}" in avoid:
        i += 1
    return f"v{i}"


def _canon_in(q: Process, env: dict[str, str], depth: int, avoid: frozenset[str]) -> Process:
    match q:
        case Zero():
            return ZERO
        case Par():
            comps = [_canon_in(c, env, depth, avoid) for c in par_components(q)]
            comps = [c for comp in comps for c in par_components(comp)]
            comps.sort(key=process_key)
            return par_of(comps)
        case Output(x, body):
            return Output(_canon_name_in(x, env, depth, avoid), _canon_in(body, env, depth, avoid))
        case Deref(x):
            return Deref(_canon_name_in(x, env, depth, avoid))
        case Input(x, binder, body):
            tok = _token(depth, avoid)
            inner = dict(env)
            inner[binder] = tok
            return Input(_canon_name_in(x, env, depth, avoid), tok,
                         _canon_in(body, inner, depth + 1, avoid))
    raise TypeError(f"not a process: {q!r}")


def _canon_name_in(n: Name, env: dict[str, str], depth: int, avoid: frozenset[str]) -> Name:
    r = resolve_name(n)
    if isinstance(r, Var):
        return Var(env.get(r.ident, r.ident))
    return Quote(_canon_in(r.process, {}, 0, avoid))


def canon_name(n: Name) -> Name:
    r = resolve_name(n)
    if isinstance(r, Var):
        return r
    return Quote(canon_process(r.process))


def struct_congruent(p: Process, q: Process) -> bool:
    return canon_process(p) == canon_process(q)


def name_equiv(x: Name, y: Name) -> bool:
    return canon_name(x) == canon_name(y)


def free_names(p: Process) -> frozenset[Name]:
    """The free names of a process, as canonical names."""
    match p:
        case Zero():
            return frozenset()
        case Input(x, binder, body):
            return frozenset((canon_name(x),)) | (free_names(body) - {Var(binder)})
        case Output(x, body):
            return frozenset((canon_name(x),)) | free_names(body)
        case Par(l, r):
            return free_names(l) | free_names(r)
        case Deref(x):
            return frozenset((canon_name(x),))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# substitution


def _fresh_binder(body: Process, new: Name, old: Name, quoted: Optional[Process]) -> str:
    """First z0, z1, ... distinct from both names, the free names of the
    substituted process, and everything named in the body."""
    taken = {n.ident for n in all_names(body) if isinstance(n, Var)}
    for n in (new, old):
        r = resolve_name(n)
        if isinstance(r, Var):
            taken.add(r.ident)
    if quoted is not None:
        for n in free_names(quoted):
            if isinstance(n, Var):
                taken.add(n.ident)
    i = 0
    while f"z{i}" in taken:
        i += 1
    return f"z{i}"


@dataclass(frozen=True)
class _Substitution:
    """`new` for `old`, with what every node of the walk compares against."""

    new: Name
    old: Name
    semantic: bool
    cold: Name  # the canonical old name
    cnew: Name  # the canonical new name
    quoted: Optional[Process]  # the process the new name quotes, if any


def _subst(p: Process, new: Name, old: Name, semantic: bool) -> Process:
    resolved_new = resolve_name(new)
    quoted = resolved_new.process if isinstance(resolved_new, Quote) else None
    return _subst_in(p, _Substitution(new, old, semantic, canon_name(old), canon_name(new), quoted))


def _subst_name(x: Name, s: _Substitution) -> Name:
    return s.new if canon_name(x) == s.cold else x


def _subst_in(q: Process, s: _Substitution) -> Process:
    match q:
        case Zero():
            return ZERO
        case Par(l, r):
            return Par(_subst_in(l, s), _subst_in(r, s))
        case Output(x, body):
            return Output(_subst_name(x, s), _subst_in(body, s))
        case Input(x, binder, body):
            z = _fresh_binder(body, s.new, s.old, s.quoted)
            renamed = _subst(body, Var(z), Var(binder), semantic=False)
            return Input(_subst_name(x, s), z, _subst_in(renamed, s))
        case Deref(x):
            x1 = _subst_name(x, s)
            if canon_name(x1) == s.cnew:
                if s.semantic and s.quoted is not None:
                    return s.quoted
                return Deref(s.new)
            return Deref(x)
    raise TypeError(f"not a process: {q!r}")


def subst_syntactic(p: Process, new: Name, old: Name) -> Process:
    """Capture-avoiding substitution of `new` for `old` at name positions.

    A dereference whose (substituted) name is equivalent to the new name is
    rewritten to dereference the new name itself.
    """
    return _subst(p, new, old, semantic=False)


def subst_semantic(p: Process, new: Name, old: Name) -> Process:
    """Like the syntactic substitution, except a dereference of the new name
    unfolds to the quoted process itself."""
    return _subst(p, new, old, semantic=True)


# ---------------------------------------------------------------------------
# reduction


def comm_step(p: Process) -> set[Process]:
    """All single-step reducts of a closed process, as canonical forms.

    Scans unordered pairs of top-level parallel components for an input and
    an output whose subjects are name-equivalent; the pair is replaced by the
    continuation with the quoted output body substituted for the binder.
    """
    return _reducts(canon_process(p))


def _reducts(p: Process) -> set[Process]:
    comps = par_components(p)  # p is canonical
    out: set[Process] = set()
    for i, ci in enumerate(comps):
        if not isinstance(ci, Input):
            continue
        for j, cj in enumerate(comps):
            if i == j or not isinstance(cj, Output):
                continue
            if ci.subject != cj.subject:  # components are canonical
                continue
            reduct = subst_syntactic(ci.body, Quote(cj.body), Var(ci.binder))
            rest = [c for k, c in enumerate(comps) if k not in (i, j)]
            out.add(canon_process(par_of(rest + par_components(reduct))))
    return out


COMM = Redex("comm", (), {})


def comm_edges(p: Process) -> list[tuple[Redex, Process]]:
    """The reducts of a canonical closed process in the fixed process order,
    each labelled with the one communication redex."""
    return [(COMM, q) for q in sorted(_reducts(p), key=process_key)]


def rho_reduce(p: Process, strategy: str = "first", fuel: int = 1000,
               *, seed: Optional[int] = None) -> Trace:
    """Drive communication steps with the term rewriting strategies."""
    return drive(canon_process(p), comm_edges, strategy, fuel, seed=seed)


# ---------------------------------------------------------------------------
# random processes


def random_process(rng: _random.Random, depth: int, binders: tuple[str, ...] = ()) -> Process:
    """Seeded random closed process of bounded constructor depth."""
    if depth <= 0:
        choices = ["zero"] + (["deref"] if binders else [])
        kind = rng.choice(choices)
        if kind == "zero":
            return ZERO
        return Deref(Var(rng.choice(binders)))
    kind = rng.choice(["zero", "par", "input", "output", "deref"])
    if kind == "zero":
        return ZERO
    if kind == "par":
        return Par(random_process(rng, depth - 1, binders),
                   random_process(rng, depth - 1, binders))
    if kind == "input":
        binder = f"u{len(binders)}"
        return Input(random_name(rng, depth - 1, binders), binder,
                     random_process(rng, depth - 1, binders + (binder,)))
    if kind == "output":
        return Output(random_name(rng, depth - 1, binders),
                      random_process(rng, depth - 1, binders))
    return Deref(random_name(rng, depth - 1, binders))


def random_name(rng: _random.Random, depth: int, binders: tuple[str, ...]) -> Name:
    if binders and rng.random() < 0.4:
        if rng.random() < 0.25:
            # quote-of-dereference chain resolving to a binder occurrence
            return Quote(Deref(Var(rng.choice(binders))))
        return Var(rng.choice(binders))
    if depth > 0 and rng.random() < 0.15:
        return Quote(Deref(random_name(rng, depth - 1, ())))
    # quote contents live in their own scope: no outer binders inside
    return Quote(random_process(rng, max(depth - 1, 0), ()))


def random_comm_candidate(rng: _random.Random, depth: int = 3) -> Process:
    """Seeded process guaranteed to have at least one communication redex."""
    subject = Quote(random_process(rng, 1))
    binder = "u0"
    receiver = Input(subject, binder, random_process(rng, depth - 1, (binder,)))
    sender = Output(subject, random_process(rng, depth - 1))
    noise = random_process(rng, depth - 1)
    comps = [receiver, sender] + par_components(noise)
    rng.shuffle(comps)
    return par_of(comps)
