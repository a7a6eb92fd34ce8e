"""Observation relations and bounded barbed bisimulation for both agent kinds.

An agent is either a process of the calculus or a combinator term; both
expose the same interface here: canonical forms, one-step successors, and
immediate barbs over a chosen name set.  Bisimilarity is only ever decided
up to a depth bound with an explicit state budget, since the full relation
is undecidable; a positive verdict is an approximant, a negative verdict
carries a replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import comb, rho
from .core import StateBudgetExhausted, Successors, Term, explore, step, term_key
from .syntax import print_comb, print_rho, print_rho_name

Agent = Union[rho.Process, Term]

DEFAULT_PAIR_BUDGET = 50_000


class BudgetExhausted(Exception):
    """The pair budget ran out before the bound was decided."""


@dataclass(frozen=True)
class _System:
    canon: Callable[[Agent], Agent]
    successors: Successors
    immediate_barbs: Callable[[Agent, tuple], frozenset]
    canon_name: Callable[[object], object]


def _rho_barbs(p: rho.Process, names: tuple) -> frozenset:
    found = set()
    for component in rho.par_components(rho.canon_process(p)):
        if isinstance(component, rho.Output):
            subject = component.subject  # canonical already
            if any(subject == n for n in names):
                found.add(subject)
    return frozenset(found)


_RHO = _System(
    canon=rho.canon_process,
    successors=rho.comm_edges,
    immediate_barbs=_rho_barbs,
    canon_name=rho.canon_name,
)


def _comb_successors(t: Term) -> list[tuple[None, Term]]:
    return [(None, s) for s in sorted(step(comb.PRESENTATION, t), key=term_key)]


def _comb_barbs(t: Term, names: tuple) -> frozenset:
    found = set()
    for component in comb.par_components(comb.canon(t)):
        if (
            component.head == comb.APP_DECL
            and component.children[0].head == comb.APP_DECL
            and component.children[0].children[0].head == comb.BANG_DECL
        ):
            subject = component.children[0].children[1]
            if any(subject == n for n in names):
                found.add(subject)
    return frozenset(found)


_COMB = _System(
    canon=comb.canon,
    successors=_comb_successors,
    immediate_barbs=_comb_barbs,
    canon_name=comb.canon,
)


def _system_for(agent: Agent) -> _System:
    return _COMB if isinstance(agent, Term) else _RHO


def barbs(agent: Agent, names) -> frozenset:
    """Immediate observable output subjects among the given names.

    An output component contributes its subject when it is name-equivalent
    to a member of the set; parallel components contribute by union.  The
    witness names are reported canonically.
    """
    system = _system_for(agent)
    canon_names = tuple(system.canon_name(n) for n in names)
    return system.immediate_barbs(agent, canon_names)


@dataclass
class WeakBarbs:
    names: frozenset
    truncated: bool

    def __contains__(self, item) -> bool:
        return item in self.names

    def __iter__(self):
        return iter(self.names)


def weak_barbs(agent: Agent, names, bound: int) -> WeakBarbs:
    """Union of barbs over every agent reachable within `bound` steps.

    Truncation (some agent first reached in `bound` + 1 steps) is reported on
    the result.  Exceeding the state budget raises StateBudgetExhausted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    system = _system_for(agent)
    canon_names = tuple(system.canon_name(n) for n in names)
    found: set = set()
    for a, depth in explore(system.canon(agent), system.successors, bound + 1):
        if depth > bound:
            return WeakBarbs(frozenset(found), True)
        found |= system.immediate_barbs(a, canon_names)
    return WeakBarbs(frozenset(found), False)


@dataclass
class Witness:
    """A replayable distinguishing certificate.

    ``kind`` is "barb" when an immediate barb of `agent` has no weak match
    in `partner` within `bound`, or "move" when a step of `agent` to
    `successor` cannot be answered; `inner` carries the sub-certificate for
    the best answering attempt.
    """

    kind: str
    side: str
    agent: Agent
    partner: Agent
    bound: int
    name: Optional[object] = None
    successor: Optional[Agent] = None
    inner: Optional["Witness"] = None

    def describe(self) -> str:
        """One line naming the barb or the successor in the surface syntax."""
        comb_side = isinstance(self.agent, Term)
        if self.kind == "barb":
            name = print_comb(self.name) if comb_side else print_rho_name(self.name)
            return (f"{self.side} agent shows barb {name} that the other "
                    f"side never shows within {self.bound} steps")
        succ = print_comb(self.successor) if comb_side else print_rho(self.successor)
        return (f"{self.side} agent steps to {succ}; no reply within "
                f"{self.bound} steps stays matched")


@dataclass
class BisimVerdict:
    bisimilar: bool
    depth: int
    witness: Optional[Witness] = None


def bounded_bisim(a: Agent, b: Agent, names, depth: int,
                  *, budget: int = DEFAULT_PAIR_BUDGET) -> BisimVerdict:
    """Decide the depth-bounded approximant of barbed bisimilarity.

    Each single step of one side must be matched by a multi-step of the
    other within the remaining depth, and every immediate barb by an
    eventual barb; the check is symmetric and memoized on canonical pairs.
    Exhausting the pair budget or the state budget of an exploration raises
    BudgetExhausted.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    system = _system_for(a)
    if _system_for(b) is not system:
        raise TypeError("agents must belong to the same calculus")
    canon_names = tuple(system.canon_name(n) for n in names)
    a0, b0 = system.canon(a), system.canon(b)
    memo: dict = {}
    spent = [0]

    def check(x: Agent, y: Agent, d: int) -> Optional[Witness]:
        key = (x, y, d)
        if key in memo:
            return memo[key]
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExhausted(f"pair budget {budget} exhausted")
        memo[key] = None  # assume matched while exploring this pair
        reach: dict = {}

        def reachable(q: Agent) -> list[Agent]:
            if q not in reach:
                reach[q] = [s for s, _ in explore(q, system.successors, d)]
            return reach[q]

        result: Optional[Witness] = None
        for p, q, side in ((x, y, "left"), (y, x, "right")):
            mine = system.immediate_barbs(p, canon_names)
            if mine:
                theirs: set = set()
                for s in reachable(q):
                    theirs |= system.immediate_barbs(s, canon_names)
                for name in sorted(mine, key=repr):
                    if name not in theirs:
                        result = Witness("barb", side, p, q, d, name=name)
                        break
            if result is not None:
                break
        if result is None and d > 0:
            for p, q, side in ((x, y, "left"), (y, x, "right")):
                for _, succ in system.successors(p):
                    inner_best: Optional[Witness] = None
                    matched = False
                    for q2 in reachable(q):
                        w = check(succ, q2, d - 1) if side == "left" else check(q2, succ, d - 1)
                        if w is None:
                            matched = True
                            break
                        if inner_best is None:
                            inner_best = w
                    if not matched:
                        result = Witness("move", side, p, q, d,
                                         successor=succ, inner=inner_best)
                        break
                if result is not None:
                    break
        memo[key] = result
        return result

    try:
        witness = check(a0, b0, depth)
    except StateBudgetExhausted as err:
        raise BudgetExhausted(str(err)) from err
    if witness is None:
        return BisimVerdict(True, depth)
    return BisimVerdict(False, depth, witness)


@dataclass
class FaithfulnessReport:
    agree: bool
    inconclusive: bool
    calculus: Optional[BisimVerdict]
    combinator: Optional[BisimVerdict]


def faithfulness_check(p: rho.Process, q: rho.Process, names, depth: int,
                       *, budget: int = DEFAULT_PAIR_BUDGET) -> FaithfulnessReport:
    """Compare the bounded verdicts on the calculus side and on the
    context-wrapped translations, name set carried across the translation."""
    comb_names = [comb.ap(comb.atom(comb.AMP_DECL), comb.interp(n.process))
                  if isinstance(rho.resolve_name(n), rho.Quote)
                  else comb.name_token(n.ident)
                  for n in (rho.canon_name(m) for m in names)]
    try:
        calc = bounded_bisim(p, q, names, depth, budget=budget)
    except BudgetExhausted:
        return FaithfulnessReport(False, True, None, None)
    wrapped_p = comb.wrap_context(comb.interp(p))
    wrapped_q = comb.wrap_context(comb.interp(q))
    try:
        comb_verdict = bounded_bisim(wrapped_p, wrapped_q, comb_names, depth, budget=budget)
    except BudgetExhausted:
        return FaithfulnessReport(False, True, calc, None)
    return FaithfulnessReport(
        agree=calc.bisimilar == comb_verdict.bisimilar,
        inconclusive=False,
        calculus=calc,
        combinator=comb_verdict,
    )


def names_occurring(agent: Agent) -> list:
    """All names occurring in an agent, canonical and deduplicated."""
    if isinstance(agent, Term):
        quotes = comb.quote_subterms(comb.canon(agent))
        out = []
        for qt in quotes:
            name = comb.canon(comb.ap(comb.atom(comb.AMP_DECL), qt))
            if name not in out:
                out.append(name)
        return out
    out = []
    for n in rho.all_names(agent):
        c = rho.canon_name(n)
        if c not in out:
            out.append(c)
    return out
