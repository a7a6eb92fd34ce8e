"""Seeded query inputs, built without running the rewriting core.

Every generator draws from a ``random.Random`` that the caller seeds, so the
same seed gives the same inputs.  Terms are assembled from the constructors
of ``skirho.ski``, ``skirho.comb`` and ``skirho.rho`` only, and the surface
text the program receives is printed here, by printers written apart from
``skirho.syntax``.

Processes are first built as small tuples (see ``RhoAst``) so that the
text, the expected parse and an independent combinator image can all be
derived from one value.
"""

from __future__ import annotations

import random

from skirho import comb, rho, ski
from skirho.core import Term

# ---------------------------------------------------------------------------
# SKI terms


def ski_tree(rng: random.Random, atoms: int) -> Term:
    """A plain SKI term with exactly ``atoms`` combinator leaves."""
    if atoms <= 1:
        return rng.choice((ski.S, ski.K, ski.I))()
    left = rng.randint(1, atoms - 1)
    return ski.ap(ski_tree(rng, left), ski_tree(rng, atoms - left))


def ski_text(t: Term) -> str:
    """Surface text of an SKI term, markers included."""
    if t.head is ski.APP_DECL:
        return f"({ski_text(t.children[0])} {ski_text(t.children[1])})"
    if t.head is ski.R_DECL:
        return f"(R {ski_text(t.children[0])})"
    return t.head.name


def node_count(t: Term) -> int:
    return 1 + sum(node_count(c) for c in t.children)


# ---------------------------------------------------------------------------
# processes as tuples: ("zero",) ("par", [p, ...]) ("out", x, p)
# ("in", x, binder, p) ("deref", x); names ("quote", p) ("var", ident)

RhoAst = tuple
ZERO: RhoAst = ("zero",)


def rho_text(p: RhoAst) -> str:
    """Surface text; bodies and quoted processes are parenthesized."""
    kind = p[0]
    if kind == "zero":
        return "0"
    if kind == "par":
        return " | ".join(f"({rho_text(c)})" if c[0] == "par" else rho_text(c) for c in p[1])
    if kind == "out":
        return f"{name_text(p[1])}!{_body_text(p[2])}"
    if kind == "in":
        return f"for({p[2]} <- {name_text(p[1])}){_body_text(p[3])}"
    if kind == "deref":
        return f"*{name_text(p[1])}"
    raise ValueError(f"not a process: {p!r}")


def _body_text(p: RhoAst) -> str:
    return "0" if p[0] == "zero" else f"({rho_text(p)})"


def name_text(n: RhoAst) -> str:
    if n[0] == "var":
        return n[1]
    return "&0" if n[1][0] == "zero" else f"&({rho_text(n[1])})"


def to_process(p: RhoAst) -> rho.Process:
    """The process the surface parser should build from ``rho_text(p)``."""
    kind = p[0]
    if kind == "zero":
        return rho.ZERO
    if kind == "par":
        comps = [to_process(c) for c in p[1]]
        out = comps[-1]
        for c in reversed(comps[:-1]):
            out = rho.Par(c, out)
        return out
    if kind == "out":
        return rho.Output(_to_name(p[1]), to_process(p[2]))
    if kind == "in":
        return rho.Input(_to_name(p[1]), p[2], to_process(p[3]))
    return rho.Deref(_to_name(p[1]))


def _to_name(n: RhoAst) -> rho.Name:
    return rho.Var(n[1]) if n[0] == "var" else rho.Quote(to_process(n[1]))


def quote(p: RhoAst) -> RhoAst:
    return ("quote", p)


def closed_process(rng: random.Random, depth: int, binders: tuple[str, ...] = ()) -> RhoAst:
    """A random process whose free names are all among ``binders``.

    The result is already in the form the translation reaches after the
    process calculus' own canonicalization, up to binder names and the order
    of parallel groups outside inputs: no quote of a dereference, and no
    parallel group inside the body of an input.  Otherwise the S/K/I image
    of an input body could not reduce to the image of the canonical process.
    """
    if depth <= 0:
        if binders and rng.random() < 0.3:
            return ("deref", ("var", rng.choice(binders)))
        return ZERO
    kinds = ("zero", "in", "out", "out", "deref") + (() if binders else ("par",))
    kind = rng.choice(kinds)
    if kind == "zero":
        return ZERO
    if kind == "par":
        return ("par", [closed_process(rng, depth - 1), closed_process(rng, depth - 1)])
    if kind == "in":
        binder = f"y{len(binders)}"
        return ("in", random_name(rng, depth - 1, binders), binder,
                closed_process(rng, depth - 1, binders + (binder,)))
    if kind == "out":
        return ("out", random_name(rng, depth - 1, binders),
                closed_process(rng, depth - 1, binders))
    return ("deref", random_name(rng, depth - 1, binders))


def random_name(rng: random.Random, depth: int, binders: tuple[str, ...]) -> RhoAst:
    if binders and rng.random() < 0.4:
        return ("var", rng.choice(binders))
    # quoted processes are closed: outer binders never reach inside a quote
    inner = closed_process(rng, max(depth - 1, 0))
    return quote(ZERO if inner[0] == "deref" else inner)


# A few channels shared by the components of one group, so that inputs and
# outputs meet.  They are pairwise distinct up to structural congruence.
CHANNELS: tuple[RhoAst, ...] = (
    quote(ZERO),
    quote(("out", quote(ZERO), ZERO)),
    quote(("par", [("out", quote(ZERO), ZERO), ("out", quote(ZERO), ZERO)])),
    quote(("in", quote(ZERO), "w", ZERO)),
)


def comm_group(rng: random.Random, components: int, deref: bool,
               shape: random.Random | None = None) -> list[RhoAst]:
    """A parallel group with one input and one or two outputs on one channel.

    The other components are outputs on a second channel and inputs on a
    third, which never meet, so the number of communications stays small
    while the group grows.  With ``deref``, one component is a dereference
    of a quoted process, which the combinator side may evaluate at any time.
    ``shape``, when given, draws the kinds, the other bodies and the order,
    and ``rng`` the channels, the messages on the shared channel and the
    dereferenced name.
    """
    shape = shape or rng
    chan, out_chan, in_chan = rng.sample(CHANNELS, 3)
    group = [("in", chan, "y0", closed_process(shape, shape.randint(0, 1), ("y0",)))]
    for _ in range(shape.randint(1, 2) if components > 2 else 1):
        group.append(("out", chan, closed_process(rng, shape.randint(0, 1))))
    if deref and len(group) < components:
        group.append(("deref", random_name(rng, 2, ())))
    while len(group) < components:
        if shape.random() < 0.5:
            group.append(("out", out_chan, closed_process(shape, shape.randint(0, 1))))
        else:
            group.append(("in", in_chan, "y0", closed_process(shape, 0, ("y0",))))
    shape.shuffle(group)
    return group


def pair_component(rng: random.Random, shape: random.Random | None = None) -> RhoAst:
    """One small component of a random bisimulation pair.  ``shape``, when
    given, draws its kind, channel and body depth, and ``rng`` the rest."""
    shape = shape or rng
    roll = shape.random()
    chan = shape.choice(CHANNELS)
    if roll < 0.35:
        return ("out", chan, closed_process(rng, shape.randint(0, 1)))
    if roll < 0.65:
        return ("in", chan, "y0", closed_process(rng, shape.randint(0, 1), ("y0",)))
    if roll < 0.85:
        return ("deref", random_name(rng, 2, ()))
    return ZERO


# ---------------------------------------------------------------------------
# combinators: an image of a process by bracket abstraction, then S/K/I
# detours that reduce back to it


def comb_text(t: Term) -> str:
    if t.head is comb.APP_DECL:
        return f"({comb_text(t.children[0])} {comb_text(t.children[1])})"
    return t.head.name


def comb_image(p: RhoAst) -> Term:
    """A W-sorted combinator for a closed process, independent of ``comb.interp``."""
    kind = p[0]
    if kind == "zero":
        return comb.atom(comb.ZERO_DECL)
    if kind == "par":
        out = comb_image(p[1][-1])
        for c in reversed(p[1][:-1]):
            out = comb.aps(comb.atom(comb.PAR_DECL), comb_image(c), out)
        return out
    if kind == "out":
        return comb.aps(comb.atom(comb.BANG_DECL), _image_name(p[1]), comb_image(p[2]))
    if kind == "in":
        return comb.aps(comb.atom(comb.FOR_DECL), _image_name(p[1]),
                        _abstract(p[2], comb_image(p[3])))
    return comb.ap(comb.atom(comb.STAR_DECL), _image_name(p[1]))


def _image_name(n: RhoAst) -> Term:
    if n[0] == "var":
        return comb.name_token(n[1])
    return comb.ap(comb.atom(comb.AMP_DECL), comb_image(n[1]))


def _mentions(t: Term, token: str) -> bool:
    return t.head.name == token or any(_mentions(c, token) for c in t.children)


def _abstract(ident: str, t: Term) -> Term:
    token = comb.NAME_TOKEN_PREFIX + ident
    if not _mentions(t, token):
        return comb.ap(comb.atom(comb.K_DECL), t)
    if t.head.name == token:
        return comb.atom(comb.I_DECL)
    return comb.aps(comb.atom(comb.S_DECL), _abstract(ident, t.children[0]),
                    _abstract(ident, t.children[1]))


def _subterms(t: Term, path: tuple = ()) -> list[tuple]:
    out = [path]
    for i, c in enumerate(t.children):
        out.extend(_subterms(c, path + (i,)))
    return out


def _replace(t: Term, path: tuple, new: Term) -> Term:
    if not path:
        return new
    kids = list(t.children)
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return Term(t.head, tuple(kids))


def _at(t: Term, path: tuple) -> Term:
    for i in path:
        t = t.children[i]
    return t


def detour(rng: random.Random, t: Term, shape: random.Random) -> Term:
    """Wrap one subterm in an I, K or S detour that reduces back to it;
    ``shape`` picks the subterm and the kind, ``rng`` the junk."""
    path = shape.choice(_subterms(t))
    sub = _at(t, path)
    junk = comb_image(closed_process(rng, 1))
    if shape.random() < 0.5:
        junk = comb.ap(comb.atom(comb.AMP_DECL), junk)
    kind = shape.choice("iks")
    if kind == "k":
        new = comb.aps(comb.atom(comb.K_DECL), sub, junk)
    elif kind == "s" and sub.head is comb.APP_DECL:
        f, a = sub.children
        new = comb.aps(comb.atom(comb.S_DECL), comb.ap(comb.atom(comb.K_DECL), f),
                       comb.ap(comb.atom(comb.K_DECL), a), junk)
    else:
        new = comb.ap(comb.atom(comb.I_DECL), sub)
    return _replace(t, path, new)


def comb_group_image(rng: random.Random, components: int, detours: int,
                     shape: random.Random) -> Term:
    """The image of a parallel group of small processes, with S/K/I detours;
    ``shape`` draws the processes and the detours, ``rng`` the detours' junk."""
    group = [closed_process(shape, 2) for _ in range(components)]
    t = comb_image(("par", group) if components > 1 else group[0])
    for _ in range(detours):
        t = detour(rng, t, shape)
    return t
