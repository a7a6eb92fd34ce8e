"""Run ``skirho.cli`` like ``python -m skirho.cli`` and report phase times.

The traced cli-cold run starts this file instead of ``-m skirho.cli``.  It
writes one last stderr line holding the clock readings (``perf_counter``,
which is system-wide on Linux) at interpreter hand-over and after the
import.  stdout and the exit code are the command's own.
"""

import sys
import time

MARK = "#skbench-cli-phases"

started = time.perf_counter()
import skirho.cli  # noqa: E402

imported = time.perf_counter()
code = skirho.cli.main(sys.argv[1:])
sys.stdout.flush()
print(f"{MARK} {started!r} {imported!r}", file=sys.stderr)
sys.exit(code)
