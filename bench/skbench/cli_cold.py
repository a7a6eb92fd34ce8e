"""cli-cold: every subcommand as a fresh ``python -m skirho.cli`` process.

Each query starts one interpreter, which imports the package, runs one
subcommand on seeded input and exits; the next starts after it ends.  This
is the only workload that pays import cost on every query and the only one
that goes through ``skirho.cli``.

The reference for a command is the same argv run in this process through
``skirho.cli.main``: exit code and stdout must match byte for byte, so a
query checks the command-line boundary, while the library results behind it
are checked by the other workloads.  SKI commands are also compared with the
independent SKI references, and JSON traces are validated and replayed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from skirho import cli, ski

from . import reference as ref
from .inputs import comb_image, comb_text, comm_group, pair_component, rho_text, ski_text
from .ski_normalize import SkiNormalize

ROOT = Path(__file__).resolve().parents[2]
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
FUEL = "60"
SUBCOMMANDS = (
    "reduce ski", "trace ski", "reduce ski-whnf", "trace ski-whnf", "reduce ski-gas",
    "trace ski-gas", "reduce rho", "trace rho", "reduce rho-comb", "trace rho-comb",
    "translate rho", "translate rho-comb", "sort rho-comb", "barbs rho", "bisim rho",
    "faithfulness rho", "roundtrip rho", "roundtrip rho-comb",
)
SHAPE_CYCLE = 4 * len(SUBCOMMANDS)  # queries repeat their shapes with this period


class CliCold:
    name = "cli-cold"
    rss_of_children = True  # the program runs in child processes
    warmup_queries = 1  # one process start compiles what later ones reuse

    def prepare(self) -> None:
        self.children_peak_rss_kb = 0
        self.ski = SkiNormalize()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def make(self, rng: random.Random, i: int) -> dict:
        """Query i runs subcommand i % 18, so every run has the same mix.
        The shapes of its processes depend on ``i % SHAPE_CYCLE`` alone, as
        in the other workloads, and the seed picks the rest."""
        command, calculus = SUBCOMMANDS[i % len(SUBCOMMANDS)].split()
        shape = random.Random(f"{self.name}/shape:{i % SHAPE_CYCLE}")
        argv = [command, "--calculus", calculus]
        q = {"ski": None}
        if calculus.startswith("ski"):
            sq = self.ski.make(rng, rng.randrange(8))
            q["ski"] = sq
            t = sq["term"]
            argv += ["--fuel", FUEL]
            if calculus == "ski":
                text = ski_text(t)
            elif calculus == "ski-whnf":
                text = ski_text(ski.R(t))
            else:
                argv += ["--gas", str(sq["markers"])]
                text = ski_text(t)
            if rng.random() < 0.5:
                argv += ["--format", "json"]
            argv.append(text)
        elif command in ("bisim", "faithfulness"):
            argv += ["--depth", "3", rho_text(pair_component(rng, shape)),
                     rho_text(("par", [pair_component(rng, shape) for _ in range(2)]))]
        else:
            process = ("par", comm_group(rng, shape.randint(2, 4), deref=False, shape=shape))
            text = comb_text(comb_image(process)) if calculus == "rho-comb" else rho_text(process)
            if command in ("reduce", "trace"):
                argv += ["--fuel", "30", "--format", "json"]
                if calculus == "rho-comb":
                    text = f"((| C) {text})"
            if command == "barbs" and rng.random() < 0.5:
                argv += ["--depth", "2"]
            argv.append(text)
        q["argv"] = argv
        return q

    def describe(self, q: dict) -> str:
        return "skirho " + " ".join(a if a.startswith("-") or " " not in a else repr(a)
                                    for a in q["argv"])

    def run(self, q: dict, tr):
        if not tr.enabled:
            with subprocess.Popen([sys.executable, "-m", "skirho.cli", *q["argv"]], env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as p:
                stdout = p.stdout.read()  # commands write little to stderr
                p.stderr.read()
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            self.children_peak_rss_kb = max(self.children_peak_rss_kb, usage.ru_maxrss)
            return (p.returncode, stdout), {}
        spawned = perf_counter()
        done = subprocess.run([sys.executable, str(SHIM), *q["argv"]],
                              env=self.env, capture_output=True, text=True, timeout=120)
        ended = perf_counter()
        started, imported = (float(x) for x in done.stderr.splitlines()[-1].split()[1:])
        tr.add_span("cli.interpreter", spawned, started)
        tr.add_span("cli.import", started, imported)
        tr.add_span("cli.command", imported, ended)
        return (done.returncode, done.stdout), {}

    def check(self, q: dict, out: tuple, raw: dict, tr) -> tuple[list[str], list]:
        code, stdout = out
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            want_code = cli.main(q["argv"])
        errs = []
        if (code, stdout) != (want_code, buf.getvalue()):
            errs.append(f"exit {code} and stdout differ from the in-process run (exit {want_code})")
        if code not in (0, 2, 3):
            errs.append(f"exit code {code} on valid input")
        try:
            if "--format" in q["argv"] and q["argv"][0] in ("reduce", "trace"):
                payload = json.loads(stdout)
                cli.validate_trace_json(payload)
                cli.replay_trace_json(payload)
                steps = payload["steps"]
                final = steps[-1]["result"] if steps else payload["initial"]
                status = payload["status"]
            elif q["ski"] is not None:
                lines = stdout.splitlines()
                final, status = lines[-3], lines[-1].split(": ")[1]
            else:
                return errs, []
        except (ValueError, IndexError, KeyError) as err:
            return errs + [f"unreadable output: {err!r}"], []
        if q["ski"] is not None:
            errs += _check_ski(q["argv"][2], q["ski"], final, status)
        return errs, []


def _check_ski(calculus: str, sq: dict, final: str, status: str) -> list[str]:
    """The printed final term and status against the SKI references."""
    head, m = sq["head"], sq["head_steps"]
    if calculus == "ski":
        want = (ski_text(sq["first"][-1]), sq["first_status"])
    elif calculus == "ski-whnf":
        done = m is not None and m <= int(FUEL)
        want = (ski_text(ref.gas_final(head[-1], 1)) if done else None,
                "normal_form" if done else "fuel_exhausted")
    else:
        n = sq["markers"]
        taken = n if m is None else min(n, m)
        want = (ski_text(ref.gas_final(head[taken], n - taken)), "normal_form")
    if status != want[1] or (want[0] is not None and final != want[0]):
        return [f"{calculus} ends at {final} ({status}), expected {want[0]} ({want[1]})"]
    return []
