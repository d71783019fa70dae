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


# -- checks that python -O keeps ------------------------------------------------

def assert_statements(source):
    """Lines of the assert statements of a module: python -O strips them, so
    a check the package relies on raises instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_assert_statement_in_the_package(path):
    assert assert_statements(path.read_text()) == []


def test_the_scan_sees_an_assert_statement():
    source = ("def f(x):\n    assert x, 'x'\n    if not x:\n        raise AssertionError('x')\n"
              "    return [y for y in x if (lambda: 0)()]\n\nassert f\n")
    assert assert_statements(source) == [2, 7]


# -- dead definitions -----------------------------------------------------------

SCANNED = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def named(node):
    """The names a syntax tree mentions: identifiers, attributes, keyword
    arguments (a dataclass field set by its constructor), imported names and
    the dotted parts of string constants (the benchmark's tracer binds
    package functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg:
            out.add(sub.arg)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
            if sub.asname:
                out.add(sub.asname)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def defined_names(stmt):
    """The names a statement of a module or a class body defines: a
    function, a class, or the names an assignment binds (constants, and
    methods bound to module functions)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def parts(stmt):
    """(owners, names) for the parts of a top-level statement: a class is
    its header and one part per statement of its body, owned by the class
    and by that statement."""
    if not isinstance(stmt, ast.ClassDef):
        return [((stmt,), named(stmt))]
    head = set().union(*map(named, stmt.bases + stmt.keywords + stmt.decorator_list))
    return [((stmt,), head)] + [((stmt, member), named(member)) for member in stmt.body]


def dead_definitions(sources):
    """Top-level functions, classes and assigned names of the package, and
    the methods and class attributes of its classes (dunders aside), that
    no part of a module other than their own definition names.  sources:
    {posix path relative to the repository root: source}."""
    defined, mentions = [], []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            if path.startswith("src/"):
                members = stmt.body if isinstance(stmt, ast.ClassDef) else []
                defined.extend((path, name, own) for own in [stmt] + members
                               for name in defined_names(own)
                               if own is stmt or not (name.startswith("__") and name.endswith("__")))
            mentions.extend(parts(stmt))
    return sorted((path, name) for path, name, own in defined
                  if not any(name in names for owners, names in mentions if own not in owners))


def test_every_package_definition_is_named_elsewhere():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in SCANNED}
    assert dead_definitions(sources) == []


def test_the_scan_sees_a_dead_definition():
    sources = {
        "src/m.py": "def used():\n    pass\n\ndef dead():\n    return dead()\n\n"
                    "def bound():\n    pass\n\nclass Alias:\n    pass\n\n"
                    "CAP = 8\nDEAD_CAP: int = 9\nLOW, HIGH = 1, 2\n\n"
                    "class Walk:\n    __slots__ = ()\n    UNIT = 0\n    peel = used\n\n"
                    "    def __mul__(self, other):\n        return self.step()\n\n"
                    "    def step(self):\n        return self\n\n"
                    "    def orphan(self):\n        return self.orphan()\n",
        "tests/t.py": "from m import used, Alias as A\nfix(m, 'm.bound', m.CAP, HIGH, Walk(UNIT=0))\n",
    }
    assert dead_definitions(sources) == [("src/m.py", "DEAD_CAP"), ("src/m.py", "LOW"), ("src/m.py", "dead"),
                                         ("src/m.py", "orphan"), ("src/m.py", "peel")]


def dead_attributes(sources):
    """(path, class, attribute) for each attribute that a method of a
    package class assigns on its first argument (self) and that no module
    reads: no attribute load, anywhere, of that name."""
    assigned, read = set(), set()
    for path, source in sources.items():
        tree = ast.parse(source)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))
        if not path.startswith("src/"):
            continue
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                    continue
                me = fn.args.args[0].arg
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        assigned.update((path, cls.name, t.attr) for t in flat(targets)
                                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                        and t.value.id == me)
    return sorted(a for a in assigned if a[2] not in read)


def test_every_attribute_set_on_self_is_read():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in SCANNED}
    assert dead_attributes(sources) == []


def test_the_scan_sees_an_attribute_nobody_reads():
    sources = {
        "src/m.py": "class Error(Exception):\n    def __init__(self, form, mono):\n"
                    "        self.form = form\n        self.mono: tuple = mono\n\n"
                    "class Node:\n    def __init__(this, q, combo):\n"
                    "        this.q, (this.combo, this.seen) = q, (combo, 0)\n"
                    "    @classmethod\n    def make(cls, x):\n        y = cls()\n        y.kept = x\n"
                    "        return y\n",
        "tests/t.py": "def f(node, err):\n    node.q = 1\n    return node.combo, err.mono\n",
    }
    assert dead_attributes(sources) == [("src/m.py", "Error", "form"), ("src/m.py", "Node", "q"),
                                        ("src/m.py", "Node", "seen")]


# -- series are values ----------------------------------------------------------

OWNERS = {("graded", "Series", "__init__"), ("graded", "Series", "_stored")}
MUTATORS = {"update", "pop", "setdefault", "clear", "popitem"}


def flat(targets):
    for t in targets:
        if isinstance(t, (ast.Tuple, ast.List)):
            yield from flat(t.elts)
        elif isinstance(t, ast.Starred):
            yield from flat([t.value])
        else:
            yield t


def stored_form_writes(source, module):
    """(line, scope) of each write into a series' stored form: an assignment
    to .numerators or .denominator outside graded.Series.__init__ and
    _stored, which make one; a subscript assignment or del on
    .numerators[...]; a call of a dict mutator on .numerators.  A syntactic
    scan: it cannot see a write through an alias (nums = f.numerators;
    nums[k] = c)."""
    def numerators(node):
        return isinstance(node, ast.Attribute) and node.attr == "numerators"

    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in flat(targets):
            if (isinstance(t, ast.Attribute) and t.attr in ("numerators", "denominator")
                    and scope not in OWNERS) or (isinstance(t, ast.Subscript) and numerators(t.value)):
                out.append((node.lineno, ".".join(scope)))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and numerators(node.func.value)):
            out.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return out


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "associators").glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_write_into_a_stored_form(path):
    assert stored_form_writes(path.read_text(), path.stem) == []


def test_the_scan_sees_a_write_into_a_stored_form():
    source = ("class Series:\n"
              "    def __init__(self):\n        self.numerators, self.denominator = {}, 1\n"
              "    def _stored(x):\n        x.numerators = {}\n"
              "    def add_into(self, f):\n        self.denominator = 2\n        self.numerators[()] = 1\n"
              "def edit(f, k):\n    f.numerators.update(f.numerators)\n    del f.numerators[k]\n"
              "    f.numerators.pop(k)\n    f.numerators[k] += 1\n    f.numerators.get(k)\n"
              "    nums = f.numerators\n    nums[k] = 1\n")
    assert stored_form_writes(source, "graded") == [
        (7, "graded.Series.add_into"), (8, "graded.Series.add_into"), (10, "graded.edit"),
        (11, "graded.edit"), (12, "graded.edit"), (13, "graded.edit")]
    # only in the graded module do Series.__init__ and _stored make a stored form
    assert stored_form_writes(source, "ncseries")[:3] == [
        (3, "ncseries.Series.__init__"), (3, "ncseries.Series.__init__"), (5, "ncseries.Series._stored")]
