"""The README's command-line and library examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from skirho.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced `language` block after the `## heading` line."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```{language}\n(.*?)^```",
                      README, re.MULTILINE | re.DOTALL)
    assert match, heading
    return match.group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines()
            if line.startswith("skirho ")]


def test_command_line_block_is_found():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
