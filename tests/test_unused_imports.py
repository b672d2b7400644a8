"""Every name an import binds is read in the scope that imports it.

An ``ast`` walk over the package, the tools, the tests and the demos. An
import at module level must be read somewhere in the module; one inside a
function, somewhere in that function. ``import a.b`` binds the dotted name,
so a read must reach ``a.b``. ``from __future__`` imports are skipped, and
so is an import statement marked ``# noqa: F401``, a deliberate re-export.
``bench/`` is left out: the benchmark owns its files.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for part in ("src", "tools", "tests", "demos") for p in (ROOT / part).rglob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _reads(scope: ast.AST) -> set[str]:
    """Every name, and every dotted name of an attribute chain on a name,
    read anywhere in ``scope``."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                names.add(".".join([base.id, *reversed(parts)]))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        reads = None
        for node in _own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            reads = _reads(scope) if reads is None else reads
            for alias in node.names:
                name = alias.asname or alias.name
                if name != "*" and name not in reads:
                    unused.append((node.lineno, name))
    return sorted(unused)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestUnusedImports:
    def test_names_an_unread_import(self):
        assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
            (1, "os"), (2, "d")]

    def test_dotted_import_needs_its_dotted_name(self):
        assert unused_imports("import a.b\nimport a.c\na.b.f()\n") == [(2, "a.c")]

    def test_function_import_needs_a_read_in_that_function(self):
        source = "x = 1\ndef f():\n    from m import x\n    def g():\n        return x\n"
        assert unused_imports(source) == []
        assert unused_imports("def f():\n    from m import x\nx = 1\nprint(x)\n") == [(2, "x")]

    def test_future_and_marked_reexport_skipped(self):
        source = "from __future__ import annotations\nfrom m import (  # noqa: F401\n    x,\n)\n"
        assert unused_imports(source) == []
