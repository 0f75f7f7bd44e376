"""Guard against dead code: every top-level name and method of the package
and every top-level name of the shared test helpers is used, and every name
a module imports.

A top-level function, class or constant of ``src/qddsim/*.py`` or
``tests/conftest.py`` must appear, as a whole word, somewhere besides its own
definition: in ``src/``, ``tests/`` or ``perfbench/``, or in the package's
``__all__``.  So must every method of a class of ``src/qddsim``: its name
appears more often than the package defines methods of that name.  A
fixture is used when a test names it as a parameter.  Dunder names are
exempt.  A module of ``src/qddsim/`` other than ``__init__.py``
uses every name it imports in its own code, so none is imported only to be
re-exported.  Only ``stabtrack.py`` names ``Integral``: its ``whole`` is the
one rule for a whole-number input.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import qddsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qddsim"


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.extend(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _words() -> Counter:
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_top_level_name_is_used():
    words = _words()
    unused = [
        f"{path.name}: {name}"
        for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "conftest.py"]
        for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        if words[name] < 2 and name not in qddsim.__all__
    ]
    assert not unused, unused


def test_every_method_is_used():
    methods = Counter(
        stmt.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    )
    words = _words()
    unused = sorted(name for name, defined in methods.items() if words[name] <= defined)
    assert not unused, unused


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            names.extend(alias.asname or alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.Import):
            names.extend(alias.asname or alias.name.split(".")[0] for alias in stmt.names)
    return names


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert not unused, unused


def test_integer_rule_lives_in_stabtrack():
    """``stabtrack.whole`` is the one rule for the counts and indices the
    API takes, so no other module tests for ``Integral`` on its own."""
    forks = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "stabtrack.py"
        and re.search(r"\bIntegral\b", path.read_text(encoding="utf-8"))
    ]
    assert not forks, forks
