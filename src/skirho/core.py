"""Generic multisorted term rewriting modulo a restricted structural congruence.

A rule side or any other pattern is a `Term` whose leaves may be
metavariables (`MetaVar`), so one set of term helpers serves terms and
patterns alike.

The congruence a presentation may declare is deliberately limited to two
ingredients that keep matching decidable and fast:

* ACU groups: a curried binary shape ``((op x) y)`` that is associative and
  commutative with a unit, normalized by flattening to a sorted multiset;
* marker floats: a unary, sort-preserving marker that floats down the head
  of an application spine, ``marker(app(x, y)) = app(marker(x), y)``,
  normalized by moving every marker onto the head of its spine (markers
  only move down, so this terminates by structure).

Redex enumeration works on canonical forms but is congruence-aware: a rule
whose left-hand side is an ACU shape may consume a sub-multiset of a
parallel group (the remainder is kept), and a rule that mentions a floating
marker may match with surplus markers peeled off into the surrounding
context.  Both correspond to matching the rule inside some representative
of the congruence class, which is exactly where the one-step edges of the
free model live.  Each presentation compiles its left-hand sides once, when
it is built, into matchers keyed by their group or by the spine key of their
leftmost path (the constructor it ends in, its length and markers).

A `Term` carries its hash and, once asked, its order key (`term_key`).  A
canonical term carries its rule summary under the presentation it is
canonical under: which rules' keys it and its subtree hold, a synthesized
attribute found from its children's summaries (Reps, Teitelbaum & Demers
1983).  One post-order walk on an explicit stack makes a term canonical and
summarizes it, entering only the nodes not yet marked; a chain of floating
markers is entered as one node and goes onto its spine's head in one
rebuild.  A successor is built canonical along its redex path once, as a
zipper copies its path (Huet 1997): the instantiated right-hand side is
canonicalized, and each ancestor on the path is rebuilt over canonical
children and settled by the step that finishes a node in that walk (its
summary, the marker float, a group sorted and joined once at its top).  So
a successor pays for its redex path and new right-hand side, and redex
enumeration enters only the subtrees whose summary holds the rule it tries.
"""

from __future__ import annotations

import itertools
import random as _random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

DEFAULT_STATE_BUDGET = 200_000

NORMAL_FORM = "normal_form"
FUEL_EXHAUSTED = "fuel_exhausted"
TARGET_REACHED = "target_reached"

REST_VAR = "__rest__"


class RewriteError(Exception):
    """Base class for rewriting failures."""


class FuelExhausted(RewriteError):
    """Raised when a fueled normalization exceeds its bound."""


class StateBudgetExhausted(FuelExhausted):
    """Raised when a search visits more states than its state budget, or a
    bisimulation check more pairs than its pair budget."""


class TranslationError(Exception):
    """Raised when a term lies outside the domain of the translation between
    the process calculus and its combinators."""


class InvalidRedex(RewriteError):
    """Raised when a redex is replayed against a term it was not found in."""


class Record:
    """A slotted immutable record whose fields are its `__match_args__`: equal
    only to a record of its own class with equal fields, hashed as its field
    tuple and printed like a dataclass.  The field tuple `_args` and its hash
    `_hash` are kept from construction, so equality exits on identity, class
    or hash before it compares fields, and the slots a class names in
    `_caches` start as None.  Slots are read faster than a tuple's fields, so
    records read at every node or rule in the loops below are these; records
    only built, hashed and compared are `NamedTuple`s."""

    __slots__ = ("_args", "_hash")
    __match_args__: tuple[str, ...] = ()
    _caches: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the slot setters, which bypass Record.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)
        cls._clearers = tuple(getattr(cls, name).__set__ for name in cls._caches)

    def __init__(self, *args) -> None:
        setters = self._setters
        if len(args) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, got {len(args)}")
        i = 0  # indexing builds no pair per field, as zip would: rho builds nodes in bulk
        for set_field in setters:
            set_field(self, args[i])
            i += 1
        for clear in self._clearers:
            clear(self, None)
        _set_args(self, args)
        _set_record_hash(self, hash(args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._args == other._args

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._args

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"


_set_args = Record._args.__set__  # type: ignore[attr-defined]
_set_record_hash = Record._hash.__set__  # type: ignore[attr-defined]


class Sort(Record):
    __slots__ = __match_args__ = ("name",)

    def __repr__(self) -> str:
        return self.name


class ConstructorDecl(Record):
    """Equal by value: declarations minted apart (comb's name tokens) may meet."""

    __match_args__ = ("name", "argument_sorts", "result_sort")
    __slots__ = __match_args__ + ("_leaf",)
    _caches = ("_leaf",)

    @property
    def arity(self) -> int:
        return len(self.argument_sorts)

    def __repr__(self) -> str:
        return f"ConstructorDecl({self.name!r}/{self.arity})"


class Term:
    """A constructor applied to children; a pattern when some leaves are MetaVars.

    Immutable.  The hash is computed once, from the head's and the children's
    cached hashes.  `_key` and `_mark` start as None, like a `Record`'s
    caches: `term_key` keeps the order key on the node when first asked (a
    term with MetaVar leaves never needs one), and `_mark` holds the rule
    summary of a canonical node, whose first entry is the presentation it is
    canonical under.
    A nullary constructor's term is one object, `leaf(decl)`, wherever the
    helpers build it, so its mark and order key are made once and reused.

    Not a `Record`: it is the hot node (some 210k are built per 3,000
    ski-normalize queries), and its hash combines the head's and children's
    cached hashes without building a field tuple.
    """

    __slots__ = ("head", "children", "_hash", "_key", "_mark")

    head: ConstructorDecl
    children: tuple[Term, ...]

    def __init__(self, head: ConstructorDecl, children: tuple[Term, ...] = ()) -> None:
        if len(children) != len(head.argument_sorts):
            raise ValueError(
                f"constructor {head.name} expects {head.arity} "
                f"children, got {len(children)}"
            )
        _set_head(self, head)
        _set_children(self, children)
        h = head._hash
        for c in children:
            h = hash((h, c._hash))
        _set_hash(self, h)
        _set_key(self, None)
        _set_mark(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Term is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Term is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        if self._hash == other._hash and self.head == other.head:
            try:
                return self.children == other.children
            except RecursionError:  # a pair nested past the recursion limit
                return _equal_deep(self, other)
        return False

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Term, (self.head, self.children)

    @property
    def sort(self) -> Sort:
        return self.head.result_sort

    def __repr__(self) -> str:
        """``(name child ...)``, a leaf by its name, written on an explicit stack."""
        out: list[str] = []
        todo: list = [self]  # terms and metavariables to write, and text to emit
        while todo:
            u = todo.pop()
            if u.__class__ is str:
                out.append(u)
            elif u.__class__ is not Term:  # a pattern's metavariable
                out.append(repr(u))
            elif not u.children:
                out.append(u.head.name)
            else:
                out += ("(", u.head.name)
                todo.append(")")
                for c in reversed(u.children):
                    todo += (c, " ")
        return "".join(out)


# the slot setters, which bypass Term.__setattr__
_set_head = Term.head.__set__  # type: ignore[attr-defined]
_set_children = Term.children.__set__  # type: ignore[attr-defined]
_set_hash = Term._hash.__set__  # type: ignore[attr-defined]
_set_key = Term._key.__set__  # type: ignore[attr-defined]
_set_mark = Term._mark.__set__  # type: ignore[attr-defined]


def _equal_deep(a: Term, b: Term) -> bool:
    """`Term.__eq__` on an explicit stack, for a pair too deep to recurse on."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a.__class__ is not Term or b.__class__ is not Term:  # a pattern's metavariable
            if a != b:
                return False
        elif a is not b:
            if a._hash != b._hash or a.head != b.head:
                return False
            todo.extend(zip(a.children, b.children))
    return True


class MetaVar(Record):
    """A pattern leaf; as a leaf it has no head and no children."""

    __slots__ = __match_args__ = ("name", "sort")
    head = None
    children = ()

    def __repr__(self) -> str:
        return f"?{self.name}"


Pattern = Union[MetaVar, Term]


def leaf(decl: ConstructorDecl) -> Term:
    """The one term of the nullary constructor `decl`, made on first use and
    kept on the declaration (a declaration minted apart has its own)."""
    if decl._leaf is None:
        object.__setattr__(decl, "_leaf", Term(decl))
    return decl._leaf


class AcuGroup(Record):
    """The shape ``((operator x) y)`` built with a binary ``app`` constructor."""

    __slots__ = __match_args__ = ("app", "operator", "unit")
    app: ConstructorDecl
    operator: Term
    unit: Term


class MarkerFloat(Record):
    """The equation ``marker(app(x, y)) = app(marker(x), y)`` for a unary
    ``marker`` and a binary ``app``."""

    __slots__ = __match_args__ = ("marker", "app")


class CongruenceSpec(Record):
    __slots__ = __match_args__ = ("acu_groups", "marker_floats")

    def __init__(self, acu_groups: tuple[AcuGroup, ...] = (), marker_floats: tuple[MarkerFloat, ...] = ()) -> None:
        Record.__init__(self, acu_groups, marker_floats)


class RewriteRule(Record):
    __slots__ = __match_args__ = ("name", "lhs", "rhs")
    name: str
    lhs: Pattern
    rhs: Pattern


class Presentation(Record):
    """Sorts, constructors, a congruence and rules.  Its float table (each
    marker to the applications it floats over), rule table (each rule with
    its left-hand side compiled) and spine caps are made when it is built;
    its summaries and rule selections are made on first use and kept.
    The caps are where a term's spine key is clipped, past which no rule
    tells keys apart: one past the longest rule spine, and the most markers a
    rule asks for (at least one).  The summary table stays finite."""

    __match_args__ = ("sorts", "constructors", "congruence", "rules")
    __slots__ = __match_args__ + ("_floats", "_rule_table", "_spine_caps", "_summaries", "_selections")

    def __init__(self, sorts: tuple[Sort, ...], constructors: tuple[ConstructorDecl, ...],
                 congruence: CongruenceSpec = CongruenceSpec(), rules: tuple[RewriteRule, ...] = ()) -> None:
        Record.__init__(self, sorts, constructors, congruence, rules)
        floats: dict[ConstructorDecl, set[ConstructorDecl]] = {}
        for f in congruence.marker_floats:
            floats.setdefault(f.marker, set()).add(f.app)
        object.__setattr__(self, "_floats", floats)  # read by `_compile_rule` below
        table = tuple(_compile_rule(self, rule, 1 << i) for i, rule in enumerate(rules))
        keys = [r.spine for r in table if r.spine is not None]
        object.__setattr__(self, "_rule_table", table)
        object.__setattr__(self, "_spine_caps", (1 + max((k[1] for k in keys), default=0),
                                                 max([1] + [k[2] for k in keys])))
        object.__setattr__(self, "_summaries", {})  # what `_summarize` has made
        object.__setattr__(self, "_selections", {})  # what `_select` has made, by rule-name tuple

    def constructor(self, name: str) -> ConstructorDecl:
        for ctor in self.constructors:
            if ctor.name == name:
                return ctor
        raise KeyError(name)

    def rule(self, name: str) -> RewriteRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)


class Redex(NamedTuple):
    rule: str
    position: tuple[int, ...]
    binding: dict[str, Term]
    peel: int = 0
    rest: Optional[Term] = None


State = Any  # a term, a process, or any other hashable search state
Successors = Callable[[State], Iterable[tuple[Redex, State]]]


@dataclass
class Trace:
    initial: State
    steps: list[tuple[Redex, State]]
    status: str

    @property
    def final(self) -> State:
        return self.steps[-1][1] if self.steps else self.initial

    def __len__(self) -> int:
        return len(self.steps)


class ValidationReport(NamedTuple):
    ok: bool
    defects: list[str]


# ---------------------------------------------------------------------------
# term utilities


def term_key(t: Term):
    """Fixed total order on terms: name, then arity, then children.  Each node
    caches its key; missing ones are made in post-order on an explicit stack."""
    if t._key is not None:
        return t._key
    todo = [t]
    while todo:
        u = todo.pop()
        if u is None:  # the node under this marker has its children's keys now
            u = todo.pop()
            _set_key(u, (u.head.name, len(u.children), tuple([c._key for c in u.children])))
        else:
            todo += (u, None)
            todo += [c for c in u.children if c._key is None]
    return t._key


def subterms(t: Pattern) -> Iterator[Pattern]:
    """Every subterm of t, t itself first, in pre-order, on an explicit stack."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        todo += reversed(u.children)


def pattern_metavars(pat: Pattern) -> dict[str, Sort]:
    out: dict[str, Sort] = {}
    for q in subterms(pat):
        if isinstance(q, MetaVar):
            out.setdefault(q.name, q.sort)
    return out


def instantiate(pat: Pattern, binding: dict[str, Term]) -> Term:
    """pat with its metavariables bound."""
    if isinstance(pat, MetaVar):
        try:
            return binding[pat.name]
        except KeyError:
            raise RewriteError(f"metavariable {pat.name} is unbound") from None
    if not pat.children:
        return pat  # a leaf of the pattern is a term already
    return Term(pat.head, tuple(instantiate(c, binding) for c in pat.children))


# ---------------------------------------------------------------------------
# canonicalization


def _shaped(g: AcuGroup, t: Pattern) -> bool:
    """Whether t is ``((operator x) y)`` built with g's app."""
    if len(t.children) == 2 and (t.head is g.app or t.head == g.app):
        f = t.children[0]
        return len(f.children) == 2 and (f.head is g.app or f.head == g.app) and f.children[0] == g.operator
    return False


def _group_of(p: Presentation, t: Pattern) -> Optional[AcuGroup]:
    for g in p.congruence.acu_groups:
        if _shaped(g, t):
            return g
    return None


def flatten_term(g: AcuGroup, t: Term) -> list[Term]:
    """The unit-free elements of t read as a g-group, left to right."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if _shaped(g, t):
            todo += (t.children[1], t.children[0].children[1])
        elif t != g.unit:
            out.append(t)
    return out


def group_join(g: AcuGroup, elems: Sequence[Term]) -> Term:
    if not elems:
        return g.unit
    out = elems[-1]
    for e in reversed(elems[:-1]):
        out = Term(g.app, (Term(g.app, (g.operator, e)), out))
    return out


def canonicalize(p: Presentation, t: Term) -> Term:
    """Canonical representative of t's congruence class.

    Every marker floats onto the head of its application spine, and ACU
    groups are flattened to unit-free multisets ordered by the fixed term
    order.  Idempotent; a canonical t comes back as itself, and of any other
    t only the nodes that change are rebuilt.
    """
    if not p.congruence.acu_groups and not p.congruence.marker_floats:
        return t
    return _canon(p, t)


def _canon(p: Presentation, t: Term) -> Term:
    """The canonical form of t under p, every node marked: one post-order walk
    on an explicit stack, which enters only the nodes not marked for p and
    rebuilds only those whose children changed.  A chain of floating markers
    is entered as one node."""
    s = t._mark
    if s is not None and s[0] is p:
        return t
    groups, floats = p.congruence.acu_groups, p._floats
    todo: list = [t]  # terms to enter, (node, group, parts) to finish, and marker chains
    done: list[Term] = []  # finished nodes: a node's parts are on top when it finishes
    while todo:
        u = todo.pop()
        if u.__class__ is Term:
            s = u._mark
            if s is not None and s[0] is p:
                done.append(u)
                continue
            if floats and len(u.children) == 1 and u.head in floats:
                chain = [u]  # down to the first node that is marked or no marker
                u = u.children[0]
                while len(u.children) == 1 and u.head in floats and ((s := u._mark) is None or s[0] is not p):
                    chain.append(u)
                    u = u.children[0]
                todo += (chain, u)
                continue
            g = _group_of(p, u) if groups else None
            kids = u.children if g is None else flatten_term(g, u)  # a maximal group is one node
            if kids:  # enter every part; a marked one comes back at once
                todo.append((u, g, kids))
                todo += reversed(kids)
                continue
        elif u.__class__ is list:
            done.append(_float_chain(p, u, done.pop()))
            continue
        else:
            u, g, kids = u
            new = tuple(done[-len(kids):])
            del done[-len(kids):]
            if g is not None:  # an element that changed may have become a group or the unit
                kids = [x for e, c in zip(kids, new) for x in ((c,) if c is e else flatten_term(g, c))]
            elif new != kids:
                u = Term(u.head, new)
                g = _group_of(p, u) if groups else None
                kids = u.children if g is None else flatten_term(g, u)
        done.append(_settle(p, u, g, kids))
    return done[0]


def _settle(p: Presentation, u: Term, g: Optional[AcuGroup], kids: Sequence[Term]) -> Term:
    """The canonical form of u, whose parts are canonical and marked (`kids`:
    its elements if it is a g-group node, else its children), marked: the
    one step that finishes a node.  A group is sorted and joined once, kept
    whole if in order already; a floating marker over an application moves
    onto the head of its spine, rebuilt around it by `_float_chain`."""
    if g is not None:
        kids = sorted(kids, key=term_key)
        u = u if _joins(g, u, kids) else group_join(g, kids)
        g = g if len(kids) > 1 else None  # else the unit or the one element
    elif len(u.children) == 1 and u.children[0].head in p._floats.get(u.head, ()):
        return _float_chain(p, [u], u.children[0])
    _summarize(p, u, g, u.children if g is None else kids)
    return u


def _float_chain(p: Presentation, chain: list[Term], c: Term) -> Term:
    """The canonical form of the marker chain `chain` (outermost first) over
    its canonical innermost child c, marked.  When every marker floats over
    the application c is, all of them go onto the head of c's spine, which is
    rebuilt once around them; else each settles in turn.  A chain node over
    an unchanged child is kept."""
    floats, app, args = p._floats, c.head, []
    if all(app in floats[m.head] for m in chain):
        while c.head is app or c.head == app:
            args.append(c.children[1])
            c = c.children[0]
    for m in reversed(chain):
        c = _settle(p, m if m.children[0] is c else Term(m.head, (c,)), None, ())
    groups = p.congruence.acu_groups
    for y in reversed(args):
        c = Term(app, (c, y))
        g = _group_of(p, c) if groups else None
        c = _settle(p, c, g, () if g is None else flatten_term(g, c))
    return c


def _joins(g: AcuGroup, t: Term, elems: list[Term]) -> bool:
    """Whether t is ``group_join(g, elems)`` over these very element objects."""
    for e in elems[:-1]:
        if not _shaped(g, t) or t.children[0].children[1] is not e:
            return False
        t = t.children[1]
    return bool(elems) and t is elems[-1]


def congruent(p: Presentation, t: Term, u: Term) -> bool:
    return canonicalize(p, t) == canonicalize(p, u)


# ---------------------------------------------------------------------------
# compiled matching

Matcher = Callable[[Term, dict], Iterable[dict]]  # (t, b) -> bindings extending b


class _Flat(Record):
    """A group-shaped pattern node, flattened: the atoms it requires, the
    matchers of its other element patterns, and its collectors.  `rest` is
    the metavariable REST_VAR of the group's sort, which collects what a
    match at a redex site leaves over."""

    __match_args__ = ("group", "needs", "elems", "collectors")
    __slots__ = __match_args__ + ("rest",)

    def __init__(self, group: AcuGroup, needs: tuple, elems: tuple, collectors: tuple) -> None:
        Record.__init__(self, group, needs, elems, collectors)
        object.__setattr__(self, "rest", MetaVar(REST_VAR, group.unit.sort))


def _flat(p: Presentation, g: AcuGroup, pat: Term) -> _Flat:
    parts = flatten_term(g, pat)
    return _Flat(g, tuple(q for q in parts if isinstance(q, Term) and not q.children),
                 tuple(_matcher(p, q) for q in parts if isinstance(q, Term) and q.children),
                 tuple(q for q in parts if isinstance(q, MetaVar)))


def _one(p: Presentation, pat: Pattern) -> Optional[Callable[[Term, dict], bool]]:
    """The matcher of a pattern without group nodes, None if it has one:
    such a pattern has at most one binding, which ``match(t, b)`` adds to b,
    saying whether t matched.  Heads and sorts are compared by identity first."""
    if isinstance(pat, MetaVar):
        name, sort = pat.name, pat.sort

        def var(t: Term, b: dict) -> bool:
            bound = b.get(name)
            if bound is None and ((s := t.head.result_sort) is sort or s == sort):
                b[name] = t
                return True
            return bound == t

        return var
    subs = [_one(p, c) for c in pat.children]
    if None in subs or _group_of(p, pat) is not None:
        return None
    head = pat.head

    def node(t: Term, b: dict) -> bool:
        h = t.head
        if h is not head and h != head:
            return False
        for m, c in zip(subs, t.children):
            if not m(c, b):
                return False
        return True

    return node


def _matcher(p: Presentation, pat: Pattern) -> Matcher:
    """The matcher of any pattern: only group nodes yield several bindings."""
    one = _one(p, pat)
    if one is not None:
        return lambda t, b: (b2,) if one(t, b2 := dict(b)) else ()
    g = _group_of(p, pat)
    if g is not None:
        flat = _flat(p, g, pat)

        def group(t: Term, b: dict) -> Iterable[dict]:
            left = _take(flat.needs, flatten_term(g, t))
            return () if left is None else _match_group(flat, left, b, False)

        return group
    head = pat.head
    subs = [_matcher(p, c) for c in pat.children]

    def node(t: Term, b: dict) -> Iterable[dict]:
        out = [b] if t.head == head else []
        for m, c in zip(subs, t.children):
            out = [b3 for b2 in out for b3 in m(c, b2)]
        return out

    return node


def _take(needs: Sequence[Term], elems: list[Term]) -> Optional[list[Term]]:
    """elems less one copy of each of needs, or None if one is missing."""
    left = list(elems)
    for a in needs:
        if a not in left:
            return None
        left.remove(a)
    return left


def _match_group(
    pat: _Flat, telems: list[Term], binding: dict[str, Term], rest: bool
) -> Iterator[dict[str, Term]]:
    """Every binding, in decomposition order, making the group pattern
    congruent to the group of `telems`, whose required atoms are taken out
    already; with `rest`, REST_VAR collects what the pattern leaves over.
    Repeated metavariables must bind canonically equal terms."""
    g, pvars = pat.group, pat.collectors
    if rest:
        pvars = pvars + (pat.rest,)
    # bound collector metavariables contribute a fixed sub-multiset
    pending: list[MetaVar] = []
    for mv in pvars:
        bound = binding.get(mv.name)
        if bound is None:
            pending.append(mv)
        elif (telems := _take(flatten_term(g, bound), telems)) is None:
            return
    # the recursion is at module level: a generator closure that refers to
    # itself would leave a reference cycle behind every match
    seen: set[tuple] = set()
    for b in _match_elems(pat.elems, g, pending, telems, (), binding):
        sig = tuple(sorted((k, term_key(v)) for k, v in b.items()))
        if sig not in seen:
            seen.add(sig)
            yield b


def _match_elems(pelems: tuple[Matcher, ...], g: AcuGroup, pending: list[MetaVar], telems: list[Term],
                 used: tuple[int, ...], b: dict[str, Term]) -> Iterator[dict[str, Term]]:
    if len(used) == len(pelems):
        leftover = [e for j, e in enumerate(telems) if j not in used]
        yield from _assign_vars(g, pending, leftover, b)
        return
    for j, te in enumerate(telems):
        if j in used:
            continue
        for b2 in pelems[len(used)](te, b):
            yield from _match_elems(pelems, g, pending, telems, used + (j,), b2)


def _assign_vars(g: AcuGroup, pending: list[MetaVar], leftover: list[Term],
                 b: dict[str, Term]) -> Iterator[dict[str, Term]]:
    if not pending:
        if not leftover:
            yield b
        return
    mv = pending[0]
    # the last collector takes what is left; any other enumerates the
    # sub-multisets (by index subset, ascending), remainder rightwards
    n = len(leftover)
    for mask in range(1 << n) if len(pending) > 1 else ((1 << n) - 1,):
        chosen = [leftover[j] for j in range(n) if mask >> j & 1]
        rest = [leftover[j] for j in range(n) if not mask >> j & 1]
        value = group_join(g, chosen)
        bound = b.get(mv.name)
        if bound is None:
            if value.sort != mv.sort:
                continue
            out = {**b, mv.name: value}
        elif bound == value:
            out = b
        else:
            continue
        yield from _assign_vars(g, pending[1:], rest, out)


def match_pattern(p: Presentation, pat: Pattern, t: Term) -> Optional[dict[str, Term]]:
    """First binding making pat congruent to t, or None."""
    return next(iter(_matcher(p, pat)(canonicalize(p, t), {})), None)


# ---------------------------------------------------------------------------
# redex enumeration


class _Rule(Record):
    """A rule with its bit in the summaries and its left-hand side compiled:
    flattened when group-shaped, else a matcher with its spine key (None: no
    key) and the marker floats ``(float, spine-marker count)`` that may peel."""

    __slots__ = __match_args__ = ("rule", "bit", "flat", "match", "spine", "floats")


def _compile_rule(p: Presentation, rule: RewriteRule, bit: int) -> _Rule:
    g = _group_of(p, rule.lhs)
    if g is not None:
        return _Rule(rule, bit, _flat(p, g, rule.lhs), None, None, ())
    # each float with the pattern's spine-head marker count, unless a metavariable leaves it open
    floats = tuple((f, walk[1]) for f in p.congruence.marker_floats
                   if not isinstance((walk := _spine(f, rule.lhs))[0], MetaVar))
    spine, path = None, [rule.lhs]  # the leftmost path, to a leaf, a metavariable or a group
    while path[-1].children and _group_of(p, path[-1]) is None:
        path.append(path[-1].children[0])
    for node in reversed(path):
        spine = _spine_key(p, node, spine)
    return _Rule(rule, bit, None, _matcher(p, rule.lhs), spine, floats)


def _spine_key(p: Presentation, node: Pattern, first: Optional[tuple]) -> Optional[tuple]:
    """The spine key of a node outside a group, from its first child's: the
    name its leftmost path ends in and how many of the path's nodes are not
    floating markers and how many are; None past a metavariable or a group."""
    if not node.children:
        return None if node.head is None else (node.head.name, 0, 0)
    m = node.head in p._floats
    return first and (first[0], first[1] + (not m), first[2] + m)


def _own(p: Presentation, spine: Optional[tuple], g: Optional[AcuGroup]) -> int:
    """The rules tried at a node with this spine key or group: a group rule at
    its group's nodes, or everywhere if it takes one element; any other rule
    outside groups, where its key, if any, agrees in name and length and
    asks for at most these markers."""
    return sum(r.bit for r in p._rule_table if (
        r.flat.group is g or len(r.flat.needs) + len(r.flat.elems) <= 1 if r.flat is not None
        else g is None and (r.spine is None or spine and r.spine[:2] == spine[:2] and r.spine[2] <= spine[2])))


def _summarize(p: Presentation, t: Term, g: Optional[AcuGroup], parts: Sequence[Term]) -> None:
    """Mark t, canonical under p, with its summary ``(p, spine, group, own,
    below)``: its spine key, its group, and the rules tried at t and in its
    subtree, found from the summaries of `parts`, its elements if it is a
    g-group node and else its children; a group rule's required atoms are
    tested by `_take`, when it is matched.  Nodes alike share one tuple."""
    below, first = 0, None
    for c in parts:
        s = c._mark
        if s is None or s[0] is not p:
            s = _canon(p, c)._mark
        below |= s[4]
        first = first or s
    # a group node by its group's identity (p holds the group), any other by
    # its head and first child
    key = (id(g), below) if g is not None else (t.head.name, first[1] if first else (), below)
    s = p._summaries.get(key)
    if s is None:
        spine = None if g is not None else _spine_key(p, t, first and first[1])
        if spine:
            n, m = p._spine_caps
            spine = (spine[0], min(spine[1], n), min(spine[2], m))
        own = _own(p, spine, g)
        s = p._summaries[key] = (p, spine, g, own, below | own)
    _set_mark(t, s)


def _select(p: Presentation, rules: Optional[Sequence[str]]) -> tuple[_Rule, ...]:
    """The compiled rules named in `rules` (all when None), in presentation
    order, made once per name tuple; ValueError names any entry the
    presentation lacks, on every call."""
    if rules is None:
        return p._rule_table
    table = p._selections.get(rules := tuple(rules))
    if table is None:
        unknown = [n for n in rules if all(r.name != n for r in p.rules)]
        if unknown:
            raise ValueError(f"the presentation has no rule {', '.join(map(repr, unknown))}")
        table = p._selections[rules] = tuple(r for r in p._rule_table if r.rule.name in rules)
    return table


def _spine(f: MarkerFloat, t: Pattern) -> tuple[Pattern, int, list[Pattern]]:
    """The head of t's spine under f, below its markers; the marker count;
    and the spine's arguments, outermost last."""
    args: list[Pattern] = []
    while t.head == f.app:
        args.append(t.children[1])
        t = t.children[0]
    args.reverse()
    k = 0
    while t.head == f.marker:
        t = t.children[0]
        k += 1
    return t, k, args


def _peel(floats: Sequence[tuple[MarkerFloat, int]], node: Term) -> tuple[int, Optional[ConstructorDecl], Term]:
    """How many floating markers to peel off into the context for this match,
    given the rule's marker floats: the count, the marker, the term to match."""
    for f, c in floats:
        if node.head != f.app:
            continue
        peeled, k, args = _spine(f, node)
        if k == 0 or c >= k:
            continue
        for _ in range(c):
            peeled = Term(f.marker, (peeled,))
        for a in args:
            peeled = Term(f.app, (peeled, a))
        return k - c, f.marker, peeled
    return 0, None, node


def _sites(p: Presentation, t: Term, s: tuple, bit: int) -> Iterator[tuple]:
    """Pre-order ``(path, node, summary, kids)`` of the positions of canonical
    t (a maximal group is one node over its elements, its kids) whose summary
    holds `bit` as their own; a subtree whose summary does not is skipped."""
    todo = [((), t, s)]
    while todo:
        path, node, s = todo.pop()
        if s[2] is None:
            kids = [((i,), c) for i, c in enumerate(node.children)]
        else:
            kids, base, u = [], (), node
            while _shaped(s[2], u):
                kids.append((base + (0, 1), u.children[0].children[1]))
                u, base = u.children[1], base + (1,)
            kids.append((base, u))
        if s[3] & bit:
            yield path, node, s, kids
        for step, c in reversed(kids):
            cs = c._mark
            if cs is None or cs[0] is not p:
                cs = _canon(p, c)._mark
            if cs[4] & bit:
                todo.append((path + step, c, cs))


def _matches(p: Presentation, t: Term, table: Sequence[_Rule]
             ) -> Iterator[tuple[Redex, _Rule, Optional[ConstructorDecl]]]:
    """Each redex of canonical, marked t under the compiled rules `table`, in
    `iter_redexes` order, with its rule and the marker a peel wraps its
    right-hand side in; no successor is built."""
    top = t._mark
    for r in table:
        for path, node, s, kids in _sites(p, t, top, r.bit) if top[4] & r.bit else ():
            if r.flat is not None:
                flat, g = r.flat, r.flat.group
                # a node outside the group is a group of at most one element
                elems = [c for _, c in kids] if s[2] is g else [] if node == g.unit else [node]
                left = _take(flat.needs, elems)
                if left is None or len(left) < len(flat.elems):
                    continue
                for b in _match_group(flat, left, {}, not flat.collectors):
                    rest = b.pop(REST_VAR, None)
                    yield Redex(r.rule.name, path, b, 0, rest), r, None
                continue
            if r.floats and (s[1] is None or s[1][2]):
                peel, marker, target = _peel(r.floats, node)
            else:
                peel, marker, target = 0, None, node
            for b in r.match(target, {}):
                yield Redex(r.rule.name, path, b, peel), r, marker


def _graft(p: Presentation, t: Term, path: tuple[int, ...], inst: Term) -> Term:
    """The canonical form of canonical, marked t with the node at `path`
    replaced by inst, built bottom-up along the path once: inst is
    canonicalized, then each ancestor is rebuilt over its canonical children
    and settled.  The nodes inside a group's spine are rebuilt but not
    settled; the group's top sorts and joins its elements once.  An
    ancestor outside groups whose new child has the old child's summary
    keeps its old summary, so from the first summary the step leaves
    unchanged up to the root no summary is recomputed."""
    groups = p.congruence.acu_groups
    ancestors = []  # (node, child index, whether it is settled), root first
    g, op = None, False  # the group whose spine the walk is in; at its ``(operator x)`` node
    for i in path:
        ancestors.append((t, i, g is None))
        if g is None and groups:
            g = _group_of(p, t)
        t = t.children[i]
        if g is not None:
            if op:  # the element below an (operator x) node
                g, op = None, False
            elif i == 0:
                op = True
            elif not _shaped(g, t):  # the group's last element
                g = None
    u = _canon(p, inst)
    for a, i, settled in reversed(ancestors):
        c, kids = u, a.children
        if len(kids) == 2:  # the common case, built without slicing
            kids = (c, kids[1]) if i == 0 else (kids[0], c)
        else:
            kids = kids[:i] + (c,) + kids[i + 1:]
        u = Term(a.head, kids)
        if settled:
            g = _group_of(p, u) if groups else None
            s = a._mark
            # outside a group a summary is a function of the head and the
            # children's summaries; a marker, which may float, has one child
            if g is None and s[0] is p and len(kids) > 1 and c._mark is a.children[i]._mark:
                _set_mark(u, s)
            else:
                u = _settle(p, u, g, () if g is None else flatten_term(g, u))
    return u


def iter_redexes(
    p: Presentation, t: Term, rules: Optional[Sequence[str]] = None
) -> Iterator[tuple[Redex, Term]]:
    """Yield (redex, canonical successor) pairs of t's canonical form in
    deterministic order, one at a time: `first` stops at the first.

    Order is rule-major: presentation rule order first, then leftmost-outermost
    position, then multiset decomposition order.  A rule is tried only at the
    positions whose summary holds it, in subtrees whose summary holds it
    below.  A successor is built canonical along its redex path once, by
    `_graft`: it arrives marked, and every node off the path is t's own.
    Naming a rule the presentation lacks raises ValueError.
    """
    table = _select(p, rules)
    t = _canon(p, t)
    for redex, r, marker in _matches(p, t, table):
        inst = instantiate(r.rule.rhs, redex.binding)
        if redex.rest is not None and redex.rest != r.flat.group.unit:
            g = r.flat.group
            inst = Term(g.app, (Term(g.app, (g.operator, inst)), redex.rest))
        for _ in range(redex.peel):
            inst = Term(marker, (inst,))
        yield redex, _graft(p, t, redex.position, inst)


def find_redexes(p: Presentation, t: Term, rules: Optional[Sequence[str]] = None) -> list[Redex]:
    return [r for r, _ in iter_redexes(p, t, rules)]


def apply_redex(p: Presentation, t: Term, r: Redex) -> Term:
    want = Redex(r.rule, tuple(r.position), r.binding, r.peel, r.rest)
    for cand, succ in iter_redexes(p, t):
        if cand == want:
            return succ
    raise InvalidRedex(f"redex {r.rule}@{tuple(r.position)} does not apply to this term")


def step(p: Presentation, t: Term, rules: Optional[Sequence[str]] = None) -> set[Term]:
    """Set of canonical one-step successors, deduplicated."""
    return {succ for _, succ in iter_redexes(p, t, rules)}


def is_normal(p: Presentation, t: Term, rules: Optional[Sequence[str]] = None) -> bool:
    """Whether t's canonical form has no redex of the named rules.  A term
    whose rule summary holds none of their bits is normal at once; only
    otherwise are its redexes matched, up to the first, and no successor
    is built."""
    table = _select(p, rules)
    t = _canon(p, t)
    return not t._mark[4] & sum(r.bit for r in table) or next(_matches(p, t, table), None) is None


def reduce(
    p: Presentation,
    t: Term,
    strategy: str = "first",
    fuel: int = 1000,
    *,
    seed: Optional[int] = None,
    rules: Optional[Sequence[str]] = None,
    target: Optional[Term] = None,
) -> Trace:
    """Drive rewriting of t's canonical form with one of the strategies of `drive`."""
    _select(p, rules)  # an unknown rule name fails here, not at the first step
    t0 = canonicalize(p, t)
    goal = canonicalize(p, target) if target is not None else None
    return drive(t0, lambda u: iter_redexes(p, u, rules), strategy, fuel,
                 seed=seed, goal=goal)


# ---------------------------------------------------------------------------
# search


def explore(
    start: State,
    successors: Successors,
    fuel: int,
    parents: Optional[dict] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    goal: Optional[State] = None,
) -> Iterator[tuple[State, int]]:
    """Breadth-first traversal yielding each state reachable within `fuel`
    steps once, with its depth, in discovery order.

    A yielded state is expanded when the consumer resumes, unless it lies at
    depth `fuel`.  `parents`, when given, receives ``succ -> (state, redex)``
    for every discovered state, a shortest path back to `start`.  Visiting
    more than `state_budget` states raises StateBudgetExhausted.  A `goal`
    other than `start` is yielded as soon as it is discovered, and the
    search ends there; it does not count against the state budget.
    """
    seen = {start}
    queue: deque[tuple[State, int]] = deque([(start, 0)])
    visited = 0
    while queue:
        cur, depth = queue.popleft()
        visited += 1
        if visited > state_budget:
            raise StateBudgetExhausted(f"state budget {state_budget} exhausted")
        yield cur, depth
        if depth == fuel:
            continue
        for redex, succ in successors(cur):
            if succ not in seen:
                seen.add(succ)
                if parents is not None:
                    parents[succ] = (cur, redex)
                if goal is not None and succ == goal:
                    yield succ, depth + 1
                    return
                queue.append((succ, depth + 1))


def drive(
    start: State,
    successors: Successors,
    strategy: str = "first",
    fuel: int = 1000,
    *,
    seed: Optional[int] = None,
    goal: Optional[State] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Trace:
    """Run one of the strategies first | all | random from `start`.

    ``successors(state)`` yields ``(redex, successor)`` pairs in a fixed
    order.  ``first`` repeatedly takes the first pair, ``random`` draws
    uniformly using the seed, ``all`` explores breadth-first and returns a
    shortest trace to a normal form (or to `goal`) within `fuel` steps; it
    stops at the discovery of `goal`, whose trace ends in the state found.
    Running out of fuel or of the state budget is the status
    ``fuel_exhausted``, not an error.
    """
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if strategy == "all":
        parents: dict = {}
        peeked: list = [None, None]  # a state and its edges, begun by the normal-form test

        def edges(state: State) -> Iterable[tuple[Redex, State]]:
            return peeked[1] if state is peeked[0] else successors(state)

        try:
            for cur, _ in explore(start, edges, fuel, parents, state_budget, goal):
                if goal is not None:
                    if cur == goal:  # the start, or the target as it is discovered
                        return Trace(start, _path(parents, cur), TARGET_REACHED)
                    continue
                rest = iter(successors(cur))
                first = next(rest, None)
                if first is None:
                    return Trace(start, _path(parents, cur), NORMAL_FORM)
                peeked[:] = [cur, itertools.chain((first,), rest)]
        except StateBudgetExhausted:
            pass
        return Trace(start, [], FUEL_EXHAUSTED)
    if strategy not in ("first", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    rng = _random.Random(seed) if strategy == "random" else None
    steps: list = []
    cur = start
    while goal is None or cur != goal:
        if strategy == "first" or len(steps) == fuel:  # out of fuel: only test for a normal form
            found = next(iter(successors(cur)), None)
        else:
            options = list(successors(cur))
            found = options[rng.randrange(len(options))] if options else None
        if found is None:
            return Trace(start, steps, NORMAL_FORM)
        if len(steps) == fuel:
            return Trace(start, steps, FUEL_EXHAUSTED)
        steps.append(found)
        cur = found[1]
    return Trace(start, steps, TARGET_REACHED)


def _path(parents: dict, state: State) -> list:
    chain = []
    while state in parents:
        prev, redex = parents[state]
        chain.append((redex, state))
        state = prev
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# presentation validation


def _check_pattern(p: Presentation, q: Pattern, where: str, mvar_sorts: dict[str, Sort],
                   defects: list[str]) -> None:
    """Append the defects of the pattern q to `defects`."""
    if isinstance(q, MetaVar):
        seen = mvar_sorts.get(q.name)
        if seen is None:
            mvar_sorts[q.name] = q.sort
        elif seen != q.sort:
            defects.append(f"{where}: metavariable {q.name} used at two sorts")
        return
    if q.head not in p.constructors:
        defects.append(f"{where}: unknown constructor {q.head.name}")
        return
    for child, want in zip(q.children, q.head.argument_sorts):
        if child.sort != want:
            defects.append(
                f"{where}: child of {q.head.name} has sort "
                f"{child.sort.name}, expected {want.name}"
            )
        _check_pattern(p, child, where, mvar_sorts, defects)


def validate_presentation(p: Presentation) -> ValidationReport:
    defects: list[str] = []

    for kind, items in (("sort", p.sorts), ("constructor", p.constructors), ("rule", p.rules)):
        names = [x.name for x in items]
        defects += [f"duplicate {kind} name {n}" for n in sorted({n for n in names if names.count(n) > 1})]

    for ctor in p.constructors:
        for s in (*ctor.argument_sorts, ctor.result_sort):
            if s not in p.sorts:
                defects.append(f"constructor {ctor.name} mentions undeclared sort {s.name}")

    for rule in p.rules:
        mvar_sorts: dict[str, Sort] = {}
        _check_pattern(p, rule.lhs, f"rule {rule.name} lhs", mvar_sorts, defects)
        _check_pattern(p, rule.rhs, f"rule {rule.name} rhs", mvar_sorts, defects)
        lhs_vars = pattern_metavars(rule.lhs)
        for name in pattern_metavars(rule.rhs):
            if name not in lhs_vars:
                defects.append(f"rule {rule.name}: unbound metavariable {name} in rhs")
        if rule.lhs.sort != rule.rhs.sort:
            defects.append(f"rule {rule.name}: lhs and rhs have different sorts")

    for f in p.congruence.marker_floats:
        where = f"marker float {f.marker.name}/{f.app.name}"
        for ctor in (f.marker, f.app):
            if ctor not in p.constructors:
                defects.append(f"{where}: undeclared constructor {ctor.name}")
        if f.marker.argument_sorts != (f.marker.result_sort,):
            defects.append(f"{where}: marker {f.marker.name} is not unary and sort-preserving")
        if f.app.arity != 2:
            defects.append(f"{where}: {f.app.name} is not binary")

    for g in p.congruence.acu_groups:
        if g.app.arity != 2:
            defects.append(f"ACU group operator {g.app.name} is not binary")
        _check_pattern(p, g.operator, "ACU group", {}, defects)
        _check_pattern(p, g.unit, "ACU group", {}, defects)

    return ValidationReport(ok=not defects, defects=defects)
