"""Every name that a module of the package or of the tests imports is used
in that module.  An ast scan, since no linter ships with the toolchain;
``from __future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "associators").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == [(2, "os"), (3, "t")]


# -- dead definitions -----------------------------------------------------------

SCANNED = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def named(node):
    """The names a syntax tree mentions: identifiers, attributes, imported
    names and the dotted parts of string constants (the benchmark's tracer
    binds package functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
            if sub.asname:
                out.add(sub.asname)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def defined_names(stmt):
    """The names a top-level statement defines: a function, a class, or the
    names an assignment binds (module constants)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def dead_definitions(sources):
    """Top-level functions, classes and assigned names of the package that
    no statement other than their own definition names.  sources: {posix
    path relative to the repository root: source}."""
    defined, mentions = [], []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            if path.startswith("src/"):
                defined.extend((path, name, stmt) for name in defined_names(stmt))
            mentions.append((stmt, named(stmt)))
    return sorted((path, name) for path, name, own in defined
                  if not any(name in names for stmt, names in mentions if stmt is not own))


def test_every_package_definition_is_named_elsewhere():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in SCANNED}
    assert dead_definitions(sources) == []


def test_the_scan_sees_a_dead_definition():
    sources = {
        "src/m.py": "def used():\n    pass\n\ndef dead():\n    return dead()\n\n"
                    "def bound():\n    pass\n\nclass Alias:\n    pass\n\n"
                    "CAP = 8\nDEAD_CAP: int = 9\nLOW, HIGH = 1, 2\n",
        "tests/t.py": "from m import used, Alias as A\nfix(m, 'm.bound', m.CAP, HIGH)\n",
    }
    assert dead_definitions(sources) == [("src/m.py", "DEAD_CAP"), ("src/m.py", "LOW"), ("src/m.py", "dead")]
