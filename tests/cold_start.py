"""Time ``import skirho.cli`` and three subcommands in fresh interpreters.

Usage, from the root of a checkout:

    python3 tests/cold_start.py [N]

Each of N rounds (default 15) starts one interpreter per mode, alternating
which mode goes first, and the median wall time of each mode is printed:

* ``source``: ``PYTHONDONTWRITEBYTECODE=1``, importing a fresh copy of
  ``src/skirho`` with no bytecode beside it, so the package is compiled on
  every start, as in the benchmark's cli-cold queries;
* ``bytecode``: a bytecode cache under a temporary ``PYTHONPYCACHEPREFIX``,
  filled by one untimed start, so nothing is compiled.

A bare interpreter start (``-c pass``) is timed alongside as the floor, and
so are three whole subcommands from source, each importing only the calculi
it runs: ``skirho reduce --calculus ski``, ``reduce --calculus rho`` and
``faithfulness``; the SKI command's distance from the floor is printed last.
Then the same N rounds run under ``-X importtime`` and each module's median
self time is printed: every ``skirho`` module and the slowest others.
Nothing is written under ``src/``; the copy and the cache live in a
temporary directory that is removed at the end.  This prints and does not
gate.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
IMPORT = ["-c", "import skirho.cli"]
COMMANDS = {
    "skirho reduce --calculus ski": ["reduce", "--calculus", "ski", "((K I) S)"],
    "skirho reduce --calculus rho": ["reduce", "--calculus", "rho", "for(y <- &0)*y | &0!0"],
    "skirho faithfulness": ["faithfulness", "&0!0", "&0!0 | 0"],
}
OTHERS_SHOWN = 8


def run(env: dict, args: list[str]) -> tuple[float, str]:
    """One fresh interpreter: its wall time and its stderr."""
    began = perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return perf_counter() - began, done.stderr


def self_times(stderr: str) -> dict[str, int]:
    """Module -> self time in microseconds, from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "[us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            out[name.strip()] = int(self_us)
    return out


def main(argv: list[str]) -> None:
    n = int(argv[0]) if argv else 15
    with tempfile.TemporaryDirectory(prefix="skirho-cold-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "skirho", copy / "skirho", ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        envs = {
            "source": dict(base, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1"),
            "bytecode": dict(base, PYTHONPATH=str(copy), PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache")),
        }
        run(envs["bytecode"], IMPORT)  # fills the cache
        walls: dict[str, list[float]] = {mode: [] for mode in ("floor", *envs, *COMMANDS)}
        selves: dict[str, dict[str, list[int]]] = {mode: {} for mode in envs}
        for i in range(n):
            walls["floor"].append(run(envs["bytecode"], ["-c", "pass"])[0])
            for mode in sorted(envs, reverse=bool(i % 2)):
                walls[mode].append(run(envs[mode], IMPORT)[0])
            for label, argv in COMMANDS.items():
                walls[label].append(run(envs["source"], ["-m", "skirho.cli", *argv])[0])
        for i in range(n):
            for mode in sorted(envs, reverse=bool(i % 2)):
                for name, us in self_times(run(envs[mode], ["-X", "importtime", *IMPORT])[1]).items():
                    selves[mode].setdefault(name, []).append(us)
    print(f"{n} fresh interpreters per mode, Python {sys.version.split()[0]}")
    medians = {mode: 1e3 * statistics.median(times) for mode, times in walls.items()}
    for mode, ms in medians.items():
        label = ("python -c pass" if mode == "floor" else f"{mode} (source)" if mode in COMMANDS
                 else f"import skirho.cli ({mode})")
        print(f"{label:40} median {ms:7.1f} ms")
    ski = medians["skirho reduce --calculus ski"] - medians["floor"]
    print(f"{'SKI reduce over the floor':40} median {ski:7.1f} ms")
    for mode, table in selves.items():
        medians = {name: statistics.median(us) for name, us in table.items()}
        ours = sorted(name for name in medians if name.split(".")[0] == "skirho")
        others = sorted((name for name in medians if name not in ours), key=medians.get, reverse=True)
        print(f"-X importtime self time, median ms ({mode}):")
        for name in ours + others[:OTHERS_SHOWN]:
            print(f"  {name:28} {medians[name] / 1e3:7.2f}")
        print(f"  {'skirho total':28} {sum(medians[name] for name in ours) / 1e3:7.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
