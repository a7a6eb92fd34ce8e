"""Package layout: no module reads another module's private names."""

from __future__ import annotations

import ast
from pathlib import Path

import skirho

SRC = Path(skirho.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def private_reads(path: Path) -> list[str]:
    """Every ``<module>._name`` and ``from .<module> import _name`` in a file."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("skirho")
        ):
            hits += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                     f"import {alias.name}" for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            hits.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return hits


def test_no_private_names_cross_modules():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in private_reads(path)] == []
