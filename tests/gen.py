"""Seeded generators of processes, sorted combinators and SKI terms.

Only the tests draw from these; the benchmark has generators of its own.
"""

from __future__ import annotations

import random as _random
from typing import Sequence

from skirho import ski
from skirho.comb import AMP_DECL, APP_DECL, I_DECL, K_DECL, S_DECL, ap, aps, atom, interp
from skirho.core import InvalidRedex, Term
from skirho.rho import ZERO, Deref, Input, Name, Output, Par, Process, Quote, Var, par_components, par_of

from naive import replace_at

# ---------------------------------------------------------------------------
# processes


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


def random_comm_candidate(rng: _random.Random, depth: int = 3,
                          free: tuple[str, ...] = ()) -> Process:
    """Seeded process guaranteed to have at least one communication redex.

    The identifiers in `free` may occur free, the shared subject included.
    """
    if free and rng.random() < 0.3:
        subject: Name = Var(rng.choice(free))
    else:
        subject = Quote(random_process(rng, 1))
    binder = "u0"
    receiver = Input(subject, binder, random_process(rng, depth - 1, free + (binder,)))
    sender = Output(subject, random_process(rng, depth - 1, free))
    noise = random_process(rng, depth - 1, free)
    comps = [receiver, sender] + par_components(noise)
    rng.shuffle(comps)
    return par_of(comps)


def rebuilt(x):
    """A fresh copy of a process or name, field by field: nothing found out
    about x (its order key, free identifiers or canonical form) is on it."""
    return type(x)(*[f if isinstance(f, str) else rebuilt(f)
                     for f in (getattr(x, name) for name in x.__match_args__)])


# ---------------------------------------------------------------------------
# sorted combinators


def random_sorted_comb(rng: _random.Random, depth: int = 3, expansions: int = 3) -> Term:
    """Seeded W-sorted context-free combinator with embedded S/K/I spines.

    Starts from the translation of a random closed process, then wraps random
    subterms in identity and constant applications (and occasionally an S
    split) that reduce back to the original.
    """
    t = interp(random_process(rng, depth))
    for _ in range(rng.randint(0, expansions)):
        t = _expand_once(t, rng)
    return t


def _positions_of(t: Term) -> list[tuple[int, ...]]:
    out = [()]
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in _positions_of(c))
    return out


def _junk(rng: _random.Random) -> Term:
    t = interp(random_process(rng, 1))
    if rng.random() < 0.5:
        return ap(atom(AMP_DECL), t)
    return t


def subterm_at(t: Term, position: Sequence[int]) -> Term:
    for i in position:
        if i >= len(t.children):
            raise InvalidRedex(f"position {tuple(position)} is not in the term")
        t = t.children[i]
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


# ---------------------------------------------------------------------------
# SKI terms


def random_ski_term(size: int, rng: _random.Random) -> Term:
    """Uniform random choice over tree shapes and atoms with a size budget.

    ``size`` counts combinator atoms (leaves); no R is ever generated.
    """
    if size <= 1:
        return rng.choice((ski.S, ski.K, ski.I))()
    left = rng.randint(1, size - 1)
    return ski.ap(random_ski_term(left, rng), random_ski_term(size - left, rng))
