"""Package layout: no module reads another module's private names, no
closure refers to itself, no public name is there for the tests alone, no
value kept on a node is probed for, and the command line maps failures to
exit codes in one place."""

from __future__ import annotations

import ast
from pathlib import Path

import skirho

SRC = Path(skirho.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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


def closure_references(path: Path) -> list[str]:
    """Every nested function that refers by name to itself or to another
    function nested in the same top-level function: such closures hold each
    other in cells, a reference cycle left for the collector on every call."""
    hits = []
    for top in ast.parse(path.read_text()).body:
        scopes = [top] if isinstance(top, ast.FunctionDef) else [
            n for n in getattr(top, "body", ()) if isinstance(n, ast.FunctionDef)]
        for scope in scopes:
            nested = [n for n in ast.walk(scope) if isinstance(n, ast.FunctionDef) and n is not scope]
            names = {n.name for n in nested}
            for n in nested:
                used = {x.id for x in ast.walk(n) if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load)}
                hits += [f"{path.name}:{n.lineno}: {scope.name}.{n.name} refers to {name}"
                         for name in sorted(used & names)]
    return hits


def test_no_nested_function_refers_to_itself_or_a_sibling():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in closure_references(path)] == []


def names_read(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name under an AST node."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names})


def test_every_public_definition_has_a_reader_besides_the_tests():
    """A public top-level function or class is read by other code in the
    package, exported or read by the benchmark; what only tests or the
    README use belongs in `tests/gen.py` or a test module."""
    statements = [stmt for path in sorted(SRC.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    reads = [(stmt, names_read(stmt)) for stmt in statements]
    outside = set(skirho.__all__)
    for path in (ROOT / "bench").rglob("*.py"):
        outside |= names_read(ast.parse(path.read_text()))
    unread = [node.name for node in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in outside
              and not any(node.name in names for stmt, names in reads if stmt is not node)]
    assert unread == []


def test_dataclasses_only_where_replace_needs_them():
    """Each `@dataclass` runs generated methods through `exec` at import, a
    cost every fresh interpreter pays: records are `NamedTuple`s or slotted
    `core.Record`s, except the two that `dataclasses.replace` needs."""
    decorated, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    target = d.func if isinstance(d, ast.Call) else d
                    if "dataclass" in ast.unparse(target):
                        decorated.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                if "dataclasses" in modules:
                    importers.append(path.stem)
    assert sorted(decorated) == ["BisimVerdict", "Trace"]
    assert importers == ["bisim", "core"]


def test_equality_and_hashing_are_defined_once_for_records_and_once_for_terms():
    """Only `core.Record` and `core.Term` define `__eq__`, `__hash__` or a
    `_hash` (as a method, a class attribute or a slot); no module assigns
    `__eq__` or `__ne__` onto a class, and none caches through
    `cached_property`: every other immutable value is a `Record`."""
    defined, assigned, cached = [], [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names = {stmt.name}
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                        names = {t.id for t in targets if isinstance(t, ast.Name)}
                        if "__slots__" in names and stmt.value is not None:
                            names |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
                    else:
                        continue
                    defined += [f"{path.stem}.{node.name}.{n}" for n in sorted(names & {"__eq__", "__hash__", "_hash"})]
            elif isinstance(node, ast.Assign):
                assigned += [f"{path.stem}:{node.lineno}: {ast.unparse(t)}" for t in node.targets
                             if isinstance(t, ast.Attribute) and t.attr in ("__eq__", "__ne__")]
            elif isinstance(node, ast.ImportFrom):
                cached += [f"{path.stem}:{node.lineno}" for a in node.names if a.name == "cached_property"]
            elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
                cached.append(f"{path.stem}:{node.lineno}")
    assert sorted(defined) == ["core.Record.__eq__", "core.Record.__hash__", "core.Record._hash",
                               "core.Term.__eq__", "core.Term.__hash__", "core.Term._hash"]
    assert assigned == []
    assert cached == []


def kept_value_probes(path: Path) -> list[str]:
    """Every ``getattr(x, "_name", default)``, ``hasattr(x, "_name")`` and
    ``except AttributeError`` in a file: a value kept on a node starts as
    None and is read as a plain attribute."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and (node.func.id, len(node.args)) in (("getattr", 3), ("hasattr", 2))
                and isinstance(name := node.args[1], ast.Constant)
                and isinstance(name.value, str) and name.value.startswith("_")):
            hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None and "AttributeError" in {
                n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}:
            hits.append(f"{path.name}:{node.lineno}: except {ast.unparse(node.type)}")
    return hits


def test_kept_values_are_read_as_plain_attributes():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in kept_value_probes(path)] == []


def unused_imports(path: Path) -> list[str]:
    """Every name a module imports and never reads, but `from __future__`
    features and the package's re-exports in `__init__`."""
    if path.stem == "__init__":
        return []
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    hits.append(f"{path.name}:{node.lineno}: {name}")
    return hits


def test_every_imported_name_is_read():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)] == []


def test_exit_codes_are_mapped_in_one_place():
    """In the command line only `main` catches, turning each failure into its
    exit code, and `_parse_names`, whose message names the literal typed."""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    catching = [getattr(stmt, "name", f"line {stmt.lineno}")
                for stmt in ast.parse((SRC / "cli.py").read_text()).body
                if any(isinstance(n, tries) for n in ast.walk(stmt))]
    assert sorted(catching) == ["_parse_names", "main"]
