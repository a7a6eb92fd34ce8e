"""Batch command line for the rewriting toolkit.

One invocation parses one or two terms in the chosen calculus, runs a
pipeline, and prints text or JSON.  Exit codes: 0 success, 1 input or parse
error, 2 fuel or search budget exhaustion, 3 property violation (for
example a sort failure where the process sort was required).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import bisim, comb, rho
from .calculus import CALCULI as RECORDS, Calculus
from .core import FuelExhausted, Trace, drive, reduce
from .syntax import ParseError, print_comb, print_rho

CALCULI = tuple(RECORDS)  # the calculus names, in registry order

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FUEL = 2
EXIT_PROPERTY = 3


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _parse_term(calc: Calculus, text: str):
    try:
        return calc.parse(text)
    except ParseError as err:
        raise CliError(f"parse error: {err}", EXIT_INPUT) from err
    except ValueError as err:  # an open process
        raise CliError(str(err), EXIT_INPUT) from err


def _parse_names(calc: Calculus, spec: Optional[str]):
    if spec is None:
        return None
    names = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            names.append(calc.parse_name(chunk))
        except ParseError as err:
            raise CliError(f"bad name literal {chunk!r}: {err}", EXIT_INPUT) from err
    return names


def trace_to_json(calculus: str, trace: Trace) -> dict:
    show = RECORDS[calculus].print
    return {
        "calculus": calculus,
        "initial": show(trace.initial),
        "steps": [{"rule": redex.rule, "position": list(redex.position), "result": show(term)}
                  for redex, term in trace.steps],
        "status": trace.status,
    }


def validate_trace_json(obj: dict) -> None:
    """Raise ValueError unless obj matches the published trace layout."""
    if not isinstance(obj, dict) or set(obj) != {"calculus", "initial", "steps", "status"}:
        raise ValueError("trace object must have exactly calculus/initial/steps/status")
    if not isinstance(obj["calculus"], str) or obj["calculus"] not in CALCULI:
        raise ValueError(f"unknown calculus {obj['calculus']!r}")
    if not isinstance(obj["initial"], str):
        raise ValueError("initial must be a string")
    if obj["status"] not in ("normal_form", "fuel_exhausted", "target_reached"):
        raise ValueError(f"unknown status {obj['status']!r}")
    if not isinstance(obj["steps"], list):
        raise ValueError("steps must be a list")
    for entry in obj["steps"]:
        if not isinstance(entry, dict) or set(entry) != {"rule", "position", "result"}:
            raise ValueError("each step must be an object with exactly rule/position/result")
        if not isinstance(entry["rule"], str) or not isinstance(entry["result"], str):
            raise ValueError("rule and result must be strings")
        # JSON true and false decode to bools, which are ints too
        if not (isinstance(entry["position"], list)
                and all(type(i) is int for i in entry["position"])):
            raise ValueError("position must be a list of integers")


def replay_trace_json(obj: dict):
    """Re-run a JSON trace step by step, returning the reproduced terms.

    Every intermediate term must be the successor of a redex with the
    step's rule and position (the communication redex for the process
    calculus).  A trace that does not parse or replay raises ValueError.
    """
    validate_trace_json(obj)
    calc = RECORDS[obj["calculus"]]
    current = calc.canon(calc.parse(obj["initial"]))
    out = []
    for entry in obj["steps"]:
        want = calc.canon(calc.parse(entry["result"]))
        if not any(r.rule == entry["rule"] and list(r.position) == entry["position"]
                   and succ == want for r, succ in calc.edges(current)):
            raise ValueError(f"step to {entry['result']!r} does not replay")
        current = want
        out.append(current)
    return out


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_reduce(args, verbose: bool) -> int:
    calc = RECORDS[args.calculus]
    term = _parse_term(calc, args.term)
    if calc.gas is not None:
        try:
            term = calc.gas(term, args.gas)
        except ValueError as err:
            raise CliError(str(err), EXIT_INPUT) from err
    trace = drive(calc.canon(term), calc.edges, args.strategy, args.fuel, seed=args.seed)
    payload = trace_to_json(args.calculus, trace)
    lines = []
    if verbose:
        lines.append(f"initial: {payload['initial']}")
        for i, entry in enumerate(payload["steps"], start=1):
            pos = ",".join(str(j) for j in entry["position"])
            lines.append(f"{i}. {entry['rule']}@[{pos}] -> {entry['result']}")
    lines.append(calc.print(trace.final))
    lines.append(f"steps: {len(trace.steps)}")
    lines.append(f"status: {trace.status}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_FUEL if trace.status == "fuel_exhausted" else EXIT_OK


def _cmd_translate(args) -> int:
    calculus = args.calculus
    term = _parse_term(RECORDS[calculus], args.term)
    if calculus == "rho":
        rendered = print_comb(comb.interp(term))
        _emit(args, {"calculus": "rho-comb", "term": rendered}, rendered)
        return EXIT_OK
    if calculus == "rho-comb":
        rendered = print_rho(comb.backinterp(term, fuel=args.fuel))
        _emit(args, {"calculus": "rho", "term": rendered}, rendered)
        return EXIT_OK
    raise CliError("translate expects --calculus rho or rho-comb", EXIT_INPUT)


def _cmd_sort(args) -> int:
    if args.calculus != "rho-comb":
        raise CliError("sort expects --calculus rho-comb", EXIT_INPUT)
    term = _parse_term(RECORDS[args.calculus], args.term)
    inferred = comb.sort_infer(term)
    if inferred is None:
        _emit(args, {"sort": None}, "not sortable")
        return EXIT_PROPERTY
    _emit(args, {"sort": repr(inferred)}, repr(inferred))
    return EXIT_OK


def _agent(args, text: str):
    calc = RECORDS[args.calculus]
    if calc.barbs is None:
        raise CliError("this command expects --calculus rho or rho-comb", EXIT_INPUT)
    return _parse_term(calc, text)


def _agent_names(args, agents) -> list:
    names = _parse_names(RECORDS[args.calculus], args.names)
    if names is None:
        names = []
        for agent in agents:
            for n in bisim.names_occurring(agent):
                if n not in names:
                    names.append(n)
    return names


def _cmd_barbs(args) -> int:
    agent = _agent(args, args.term)
    names = _agent_names(args, [agent])
    show = RECORDS[args.calculus].print_name
    if args.depth is not None:
        observed = bisim.weak_barbs(agent, names, args.depth)
        found = sorted(show(n) for n in observed.names)
        payload = {"barbs": found, "truncated": observed.truncated}
        text = "\n".join(found) if found else "(none)"
        if observed.truncated:
            text += "\n(truncated at bound)"
    else:
        found = sorted(show(n) for n in bisim.barbs(agent, names))
        payload = {"barbs": found}
        text = "\n".join(found) if found else "(none)"
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_bisim(args) -> int:
    left = _agent(args, args.left)
    right = _agent(args, args.right)
    names = _agent_names(args, [left, right])
    try:
        verdict = bisim.bounded_bisim(left, right, names, args.depth)
    except bisim.BudgetExhausted as err:
        raise CliError(str(err), EXIT_FUEL) from err
    if verdict.bisimilar:
        payload = {"verdict": "bisimilar_up_to", "depth": verdict.depth}
        text = f"bisimilar up to depth {verdict.depth}"
    else:
        payload = {
            "verdict": "distinguished",
            "depth": verdict.depth,
            "witness": verdict.witness.describe(),
        }
        text = f"distinguished: {verdict.witness.describe()}"
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_faithfulness(args) -> int:
    left = _agent(args, args.left)
    right = _agent(args, args.right)
    names = _agent_names(args, [left, right])
    report = bisim.faithfulness_check(left, right, names, args.depth)
    if report.inconclusive:
        raise CliError("state budget exhausted; verdict inconclusive", EXIT_FUEL)
    payload = {
        "agree": report.agree,
        "calculus_bisimilar": report.calculus.bisimilar,
        "combinator_bisimilar": report.combinator.bisimilar,
    }
    text = (
        f"calculus: {'bisimilar' if report.calculus.bisimilar else 'distinguished'}\n"
        f"combinators: {'bisimilar' if report.combinator.bisimilar else 'distinguished'}\n"
        f"agreement: {'yes' if report.agree else 'NO'}"
    )
    _emit(args, payload, text)
    return EXIT_OK if report.agree else EXIT_PROPERTY


def _cmd_roundtrip(args) -> int:
    calculus = args.calculus
    term = _parse_term(RECORDS[calculus], args.term)
    checks: list[tuple[str, bool, str]] = []
    if calculus == "rho":
        image = comb.interp(term)
        back = comb.backinterp(image, fuel=args.fuel)
        ok1 = back == rho.canon_process(term)
        checks.append(("back_translation_alpha_equivalent", ok1, print_rho(back)))
        again = comb.interp(back)
        ok2 = comb.backinterp(again, fuel=args.fuel) == back
        checks.append(("composite_idempotent", ok2, print_comb(again)))
    elif calculus == "rho-comb":
        process = comb.backinterp(term, fuel=args.fuel)
        target = comb.interp(process)
        trace = reduce(comb.PRESENTATION, term, "all", args.fuel,
                       rules=comb.NON_COMM_RULES, target=target)
        ok1 = trace.status == "target_reached"
        checks.append(("reduces_to_composite_without_comm", ok1, print_comb(target)))
        ok2 = comb.backinterp(target, fuel=args.fuel) == process
        checks.append(("composite_idempotent", ok2, print_rho(process)))
    else:
        raise CliError("roundtrip expects --calculus rho or rho-comb", EXIT_INPUT)
    payload = {"checks": [{"name": n, "ok": ok, "value": v} for n, ok, v in checks]}
    text = "\n".join(f"{'ok ' if ok else 'FAIL'} {n}: {v}" for n, ok, v in checks)
    _emit(args, payload, text)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit 1; subparsers inherit it."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}", EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skirho",
        description="term rewriting for combinator calculi and a reflective process calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": {"type": int, "default": 0},
        "--fuel": {"type": int, "default": 1000},
        "--names": {"type": str, "default": None, "help": "comma separated name literals"},
    }

    def command(name: str, run, about: str, *flags: str,
                calculus: bool = True) -> argparse.ArgumentParser:
        """A subcommand accepting `--format` and only the shared `flags` it reads."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        if calculus:
            p.add_argument("--calculus", choices=CALCULI, required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    for name, verbose, about in (("reduce", False, "reduce a term and print the result"),
                                 ("trace", True, "reduce a term and print every step")):
        p = command(name, functools.partial(_cmd_reduce, verbose=verbose), about,
                    "--seed", "--fuel")
        p.add_argument("--strategy", choices=("first", "all", "random"), default="first")
        p.add_argument("--gas", type=int, default=0, help="marker count (ski-gas only)")
        p.add_argument("term")

    p = command("translate", _cmd_translate,
                "translate between the process calculus and combinators", "--fuel")
    p.add_argument("term")

    p = command("sort", _cmd_sort, "infer the sort of a combinator")
    p.add_argument("term")

    p = command("barbs", _cmd_barbs, "observable output subjects", "--names")
    p.add_argument("--depth", type=int, default=None,
                   help="bound for eventual barbs; omit for immediate barbs")
    p.add_argument("term")

    p = command("bisim", _cmd_bisim, "bounded barbed bisimulation check", "--names")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("left")
    p.add_argument("right")

    p = command("faithfulness", _cmd_faithfulness, "compare verdicts across the translation",
                "--names", calculus=False)
    p.add_argument("--calculus", choices=("rho",), default="rho")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("left")
    p.add_argument("right")

    p = command("roundtrip", _cmd_roundtrip,
                "check both translation round trips for one input", "--fuel")
    p.add_argument("term")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("fuel", "gas", "depth"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise CliError(f"--{flag} must be >= 0", EXIT_INPUT)
        return args.run(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except FuelExhausted as err:
        print(str(err), file=sys.stderr)
        return EXIT_FUEL
    except comb.TranslationError as err:
        print(str(err), file=sys.stderr)
        return EXIT_PROPERTY
    except RecursionError:
        print("term nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
