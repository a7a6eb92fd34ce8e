"""Independent oracles the engine is checked against.

Everything here is deliberately written without the rewriting core's
matching and search: plain structural matching, explicit tree rebuilding,
and textbook graph search.  The redex enumerator reuses only the core's term
helpers, and canonicalizes its successors with `naive_canonicalize`:
canonicalization by its definition, with no marks and no reuse of unchanged
nodes.
"""

from __future__ import annotations

from collections import deque

from skirho.core import (
    REST_VAR,
    MetaVar,
    Redex,
    Term,
    flatten_term,
    group_join,
    instantiate,
    replace_at,
    term_key,
)
from skirho.ski import APP_DECL, I_DECL, K_DECL, S_DECL, I, K, S, ap


def naive_ski_step(t):
    """All one-step reducts of a plain SKI term by structural inspection."""
    results = set()

    def contract_here(u):
        out = []
        if (u.head is APP_DECL and u.children[0].head is APP_DECL
                and u.children[0].children[0].head is APP_DECL
                and u.children[0].children[0].children[0].head is S_DECL):
            x = u.children[0].children[0].children[1]
            y = u.children[0].children[1]
            z = u.children[1]
            out.append(ap(ap(x, z), ap(y, z)))
        if (u.head is APP_DECL and u.children[0].head is APP_DECL
                and u.children[0].children[0].head is K_DECL):
            out.append(u.children[0].children[1])
        if u.head is APP_DECL and u.children[0].head is I_DECL:
            out.append(u.children[1])
        return out

    def walk(u, rebuild):
        for r in contract_here(u):
            results.add(rebuild(r))
        if u.head is APP_DECL:
            left, right = u.children
            walk(left, lambda nl: rebuild(ap(nl, right)))
            walk(right, lambda nr: rebuild(ap(left, nr)))

    walk(t, lambda x: x)
    return results


def enumerate_ski_terms(leaves: int, _memo={}):
    """Every plain SKI term with exactly `leaves` combinator occurrences."""
    if leaves in _memo:
        return _memo[leaves]
    if leaves == 1:
        out = [S(), K(), I()]
    else:
        out = []
        for split in range(1, leaves):
            for f in enumerate_ski_terms(split):
                for a in enumerate_ski_terms(leaves - split):
                    out.append(ap(f, a))
    _memo[leaves] = out
    return out


def bfs_distance_to_normal(t, successors, bound):
    """Length of a shortest successor path to a successor-free node, or None."""
    seen = {t}
    frontier = [t]
    for dist in range(bound + 1):
        nxt = []
        for cur in frontier:
            succs = successors(cur)
            if not succs:
                return dist
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        if not nxt:
            return None
        frontier = nxt
    return None


def close_under_monoid_laws(t, group_app, group_op, unit, bound=2000):
    """All terms reachable by the unit/associativity/commutativity equations
    applied in both directions anywhere in the term, up to a size bound."""

    def shaped(u):
        return (u.head is group_app and u.children[0].head is group_app
                and u.children[0].children[0] == group_op)

    def mk(a, b):
        from skirho.core import Term

        return Term(group_app, (Term(group_app, (group_op, a)), b))

    def local_variants(u):
        out = set()
        if shaped(u):
            a = u.children[0].children[1]
            b = u.children[1]
            out.add(mk(b, a))  # commutativity
            if a == unit:
                out.add(b)  # unit, left
            if b == unit:
                out.add(a)
            if shaped(a):  # associativity, both directions
                a1 = a.children[0].children[1]
                a2 = a.children[1]
                out.add(mk(a1, mk(a2, b)))
            if shaped(b):
                b1 = b.children[0].children[1]
                b2 = b.children[1]
                out.add(mk(mk(a, b1), b2))
        out.add(mk(unit, u))  # unit, introduced
        return out

    def variants(u):
        from skirho.core import Term

        out = set(local_variants(u))
        for i, child in enumerate(u.children):
            for v in variants(child):
                kids = list(u.children)
                kids[i] = v
                out.add(Term(u.head, tuple(kids)))
        return out

    seen = {t}
    queue = deque([t])
    while queue and len(seen) < bound:
        cur = queue.popleft()
        for v in variants(cur):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def naive_canonicalize(p, t):
    """The canonical form rebuilt node by node, bottom-up: each rebuilt node
    has its markers floated down the spine and, at a group node, the group
    flattened, sorted by `term_key` and joined again, at every level."""
    if not p.congruence.acu_groups and not p.congruence.marker_floats:
        return t
    return _naive_settle(p, Term(t.head, tuple(naive_canonicalize(p, c) for c in t.children)))


def _naive_settle(p, t):
    for f in p.congruence.marker_floats:
        if t.head == f.marker and t.children[0].head == f.app:
            x, y = t.children[0].children
            return _naive_settle(p, Term(f.app, (_naive_settle(p, Term(f.marker, (x,))), y)))
    g = _group(p, t)
    if g is None:
        return t
    elems = sorted(_elements(p, g, t), key=term_key)
    out = elems.pop() if elems else g.unit
    while elems:
        out = Term(g.app, (Term(g.app, (g.operator, elems.pop())), out))
    return out


def _elements(p, g, t):
    if t == g.unit:
        return []
    if _group(p, t) is g:
        return _elements(p, g, t.children[0].children[1]) + _elements(p, g, t.children[1])
    return [t]


def naive_redexes(p, t, rules=None):
    """Every ``(redex, successor)`` of a canonical term in the engine's order
    (rule, then pre-order position, then decomposition), with no index and
    no compiled matcher: every rule is matched by plain recursion at every
    position, and every successor is the whole term rebuilt and
    canonicalized again by `naive_canonicalize`."""
    return list(iter_naive_redexes(p, t, rules))


def iter_naive_redexes(p, t, rules=None):
    """`naive_redexes`, one at a time."""
    for rule in p.rules:
        if rules is not None and rule.name not in rules:
            continue
        g = _group(p, rule.lhs)
        for path, node in _positions(p, t, ()):
            if g is not None:
                parts = flatten_term(g, rule.lhs)
                rest = None if any(isinstance(q, MetaVar) for q in parts) else MetaVar(REST_VAR, g.unit.sort)
                for b in _match_multiset(p, g, parts, flatten_term(g, node), {}, rest):
                    left = b.pop(REST_VAR, None)
                    inst = instantiate(rule.rhs, b)
                    if left is not None and left != g.unit:
                        inst = Term(g.app, (Term(g.app, (g.operator, inst)), left))
                    succ = naive_canonicalize(p, replace_at(t, path, inst))
                    yield Redex(rule.name, path, b, 0, left), succ
            elif _group(p, node) is None:
                peel, marker, target = _peeled(p, rule.lhs, node)
                for b in _match(p, rule.lhs, target, {}):
                    inst = instantiate(rule.rhs, b)
                    for _ in range(peel):
                        inst = Term(marker, (inst,))
                    succ = naive_canonicalize(p, replace_at(t, path, inst))
                    yield Redex(rule.name, path, b, peel, None), succ


def _group(p, t):
    for g in p.congruence.acu_groups:
        if (t.head == g.app and t.children[0].head == g.app
                and t.children[0].children[0] == g.operator):
            return g
    return None


def _positions(p, t, path):
    """Pre-order (path, node) pairs, a maximal group one node over its elements."""
    yield path, t
    g = _group(p, t)
    if g is None:
        for i, c in enumerate(t.children):
            yield from _positions(p, c, path + (i,))
        return
    while _group(p, t) is g:
        yield from _positions(p, t.children[0].children[1], path + (0, 1))
        t, path = t.children[1], path + (1,)
    yield from _positions(p, t, path)


def _spine_head(f, t):
    """(head under the markers, marker count, arguments) of t's spine."""
    args = []
    while t.head == f.app:
        args.insert(0, t.children[1])
        t = t.children[0]
    k = 0
    while t.head == f.marker:
        t, k = t.children[0], k + 1
    return t, k, args


def _peeled(p, lhs, node):
    """For the first marker float under whose spine the node carries more
    markers than the pattern (whose spine head is no metavariable): the
    surplus, the marker, and the node without the surplus."""
    for f in p.congruence.marker_floats:
        pat_head, c, _ = _spine_head(f, lhs)
        if isinstance(pat_head, MetaVar) or node.head != f.app:
            continue
        head, k, args = _spine_head(f, node)
        if k > c:
            for _ in range(c):
                head = Term(f.marker, (head,))
            for a in args:
                head = Term(f.app, (head, a))
            return k - c, f.marker, head
    return 0, None, node


def _match(p, pat, t, b):
    """Every binding extending b that makes pat congruent to canonical t."""
    if isinstance(pat, MetaVar):
        if pat.name in b:
            return [b] if b[pat.name] == t else []
        return [{**b, pat.name: t}] if t.sort == pat.sort else []
    g = _group(p, pat)
    if g is not None:
        return _match_multiset(p, g, flatten_term(g, pat), flatten_term(g, t), b, None)
    if pat.head != t.head:
        return []
    out = [b]
    for pc, tc in zip(pat.children, t.children):
        out = [b3 for b2 in out for b3 in _match(p, pc, tc, b2)]
    return out


def _match_multiset(p, g, parts, telems, b, rest):
    """Element patterns take distinct elements in pattern order, each trying
    them in canonical order; then collectors bound on entry take their
    elements, every other collector but the last a sub-multiset (subsets by
    ascending index mask), the last what is left; repeats are dropped."""
    elems = [q for q in parts if not isinstance(q, MetaVar)]
    pending = []
    for mv in [q for q in parts if isinstance(q, MetaVar)] + ([rest] if rest else []):
        if mv.name not in b:
            pending.append(mv)
            continue
        for item in flatten_term(g, b[mv.name]):
            if item not in telems:
                return []
            telems = telems[:telems.index(item)] + telems[telems.index(item) + 1:]
    found = []

    def collect(i, left, b):
        if i == len(pending):
            if not left:
                found.append(b)
            return
        mv, n = pending[i], len(left)
        for mask in range(1 << n) if i < len(pending) - 1 else [(1 << n) - 1]:
            value = group_join(g, [left[j] for j in range(n) if mask >> j & 1])
            if mv.name in b and b[mv.name] != value or value.sort != mv.sort:
                continue
            collect(i + 1, [left[j] for j in range(n) if not mask >> j & 1], {**b, mv.name: value})

    def pick(i, left, b):
        if i == len(elems):
            collect(0, left, b)
            return
        for j, te in enumerate(left):
            for b2 in _match(p, elems[i], te, b):
                pick(i + 1, left[:j] + left[j + 1:], b2)

    pick(0, telems, b)
    out, seen = [], set()
    for b in found:
        sig = tuple(sorted((k, term_key(v)) for k, v in b.items()))
        if sig not in seen:
            seen.add(sig)
            out.append(b)
    return out
