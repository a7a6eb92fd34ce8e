"""Observation relations and bounded barbed bisimulation for both agent kinds.

An agent is either a process of the calculus or a combinator term; both are
run through their `calculus.Calculus` record: canonical forms, one-step
successors, and immediate barbs over a chosen name set.  Bisimilarity is
only ever decided up to a depth bound with an explicit state budget, since
the full relation is undecidable; a positive verdict is an approximant, a
negative verdict carries a replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple, Optional, Union

from . import rho
from .calculus import CALCULI, Calculus
from .core import Record, StateBudgetExhausted, Successors, Term, explore

Agent = Union[rho.Process, Term]

DEFAULT_PAIR_BUDGET = 50_000


BudgetExhausted = StateBudgetExhausted  # callers catch the one budget exception under this name too


def calculus_of(agent: Agent) -> Calculus:
    """The record of the agent's calculus: combinator terms or processes."""
    return CALCULI["rho-comb"] if isinstance(agent, Term) else CALCULI["rho"]


def _moves(calc: Calculus) -> Successors:
    """Deduplicated successors of a canonical agent in the fixed order, computed once each."""
    return cache(lambda a: [(None, s) for s in sorted({s for _, s in calc.edges(a)}, key=calc.key)])


def barbs(agent: Agent, names) -> frozenset:
    """Immediate observable output subjects among the given names.

    An output component contributes its subject when it is name-equivalent
    to a member of the set; parallel components contribute by union.  The
    witness names are reported canonically.
    """
    calc = calculus_of(agent)
    return calc.barbs(calc.canon(agent), tuple(calc.canon_name(n) for n in names))


class WeakBarbs(Record):
    __slots__ = __match_args__ = ("names", "truncated")
    names: frozenset
    truncated: bool


def weak_barbs(agent: Agent, names, bound: int) -> WeakBarbs:
    """Union of barbs over every agent reachable within `bound` steps.

    Truncation (some agent first reached in `bound` + 1 steps) is reported on
    the result.  Exceeding the state budget raises StateBudgetExhausted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    calc = calculus_of(agent)
    canon_names = tuple(calc.canon_name(n) for n in names)
    found: set = set()
    for a, depth in explore(calc.canon(agent), _moves(calc), bound + 1):
        if depth > bound:
            return WeakBarbs(frozenset(found), True)
        found |= calc.barbs(a, canon_names)
    return WeakBarbs(frozenset(found), False)


class Witness(NamedTuple):
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
        calc = calculus_of(self.agent)
        if self.kind == "barb":
            return (f"{self.side} agent shows barb {calc.print_name(self.name)} that the "
                    f"other side never shows within {self.bound} steps")
        return (f"{self.side} agent steps to {calc.print(self.successor)}; no reply within "
                f"{self.bound} steps stays matched")


@dataclass
class BisimVerdict:
    bisimilar: bool
    depth: int
    witness: Optional[Witness] = None


def bounded_bisim(a: Agent, b: Agent, names, depth: int) -> BisimVerdict:
    """Decide the depth-bounded approximant of barbed bisimilarity.

    Each single step of one side must be matched by a multi-step of the
    other within the remaining depth, and every immediate barb by an
    eventual barb; the check is symmetric and memoized on canonical pairs.
    Exhausting the pair budget (`DEFAULT_PAIR_BUDGET`, read at each call) or
    the state budget of an exploration raises StateBudgetExhausted.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    calc = calculus_of(a)
    if calculus_of(b) is not calc:
        raise TypeError("agents must belong to the same calculus")
    run = _Run(calc, tuple(calc.canon_name(n) for n in names), _moves(calc), {}, {})
    witness = _check(run, calc.canon(a), calc.canon(b), depth)
    return BisimVerdict(witness is None, depth, witness)


class _Run(NamedTuple):
    """One `bounded_bisim` call: what every pair check reads, the memo it
    fills, and each ``(agent, bound)`` search, run once.  The recursion is at
    module level: a nested function calling itself would leave a reference
    cycle behind every check."""

    calc: Calculus
    names: tuple
    successors: Successors
    memo: dict
    reach: dict


def _check(run: _Run, x: Agent, y: Agent, d: int) -> Optional[Witness]:
    key = (x, y, d)
    if key in run.memo:
        return run.memo[key]
    if len(run.memo) >= DEFAULT_PAIR_BUDGET:  # one entry per pair checked
        raise StateBudgetExhausted(f"pair budget {DEFAULT_PAIR_BUDGET} exhausted")
    run.memo[key] = None  # assume matched while exploring this pair
    run.memo[key] = witness = next(_witnesses(run, x, y, d), None)
    return witness


def _witnesses(run: _Run, x: Agent, y: Agent, d: int) -> Iterator[Witness]:
    """Why x and y differ at bound d: the unmatched barbs, left side then
    right in `repr` order, then the unanswered moves, each with its first
    failing reply as `inner`."""
    calc = run.calc
    for p, q, side in ((x, y, "left"), (y, x, "right")):
        mine = calc.barbs(p, run.names)
        if mine:
            theirs: set = set()
            for s in _reachable(run, q, d):
                theirs |= calc.barbs(s, run.names)
            for name in sorted(mine - theirs, key=repr):
                yield Witness("barb", side, p, q, d, name=name)
    if d == 0:
        return
    for p, q, side in ((x, y, "left"), (y, x, "right")):
        for _, succ in run.successors(p):
            inner: Optional[Witness] = None
            for q2 in _reachable(run, q, d):
                w = _check(run, succ, q2, d - 1) if side == "left" else _check(run, q2, succ, d - 1)
                if w is None:
                    break
                inner = inner or w
            else:
                yield Witness("move", side, p, q, d, successor=succ, inner=inner)


def _reachable(run: _Run, q: Agent, d: int) -> list[Agent]:
    """Every agent within d steps of q, explored once per `bounded_bisim` call."""
    key = (q, d)
    if key not in run.reach:
        run.reach[key] = [s for s, _ in explore(q, run.successors, d)]
    return run.reach[key]


class FaithfulnessReport(NamedTuple):
    agree: bool
    inconclusive: bool
    calculus: Optional[BisimVerdict]
    combinator: Optional[BisimVerdict]


def faithfulness_check(p: rho.Process, q: rho.Process, names, depth: int) -> FaithfulnessReport:
    """Compare the bounded verdicts on the calculus side and on the
    context-wrapped translations, name set carried across the translation."""
    from . import comb
    comb_names = [comb.interp_name(rho.canon_name(n)) for n in names]
    try:
        calc = bounded_bisim(p, q, names, depth)
    except StateBudgetExhausted:
        return FaithfulnessReport(False, True, None, None)
    wrapped_p = comb.wrap_context(comb.interp(p))
    wrapped_q = comb.wrap_context(comb.interp(q))
    try:
        comb_verdict = bounded_bisim(wrapped_p, wrapped_q, comb_names, depth)
    except StateBudgetExhausted:
        return FaithfulnessReport(False, True, calc, None)
    return FaithfulnessReport(
        agree=calc.bisimilar == comb_verdict.bisimilar,
        inconclusive=False,
        calculus=calc,
        combinator=comb_verdict,
    )


def names_occurring(*agents: Agent) -> list:
    """The names the agents can barb on, canonical, each once in first-seen
    order: every name occurring in one but an identifier an enclosing input binds."""
    calc = calculus_of(agents[0])
    return list(dict.fromkeys(calc.canon_name(n) for agent in agents for n in calc.names(agent)))
