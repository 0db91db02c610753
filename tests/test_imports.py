"""The lint step: every name a module of the package, a test module or a
demo imports is used, and every private function or method of the package
is referenced in it.

Only `__init__.py` imports names for others to use (its re-exports), so it
is the one module left out of the import check.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ehrpoly"
# the modules the import check reads, by test id
LINTED = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
LINTED.update({f"{d}/{p.name}": p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads.

    Names in string annotations count as read, since `from __future__
    import annotations` and forward references leave them unevaluated.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import math\nfrom typing import Sequence, Iterator\n\nx: 'Iterator' = math.pi\n"
    assert unused_imports(source) == ["Sequence (line 2)"]


@pytest.mark.parametrize("path", sorted(LINTED))
def test_no_unused_imports(path):
    assert unused_imports(LINTED[path].read_text()) == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private functions and methods (one leading underscore) defined in
    the modules `sources` maps by name that no module names, as a variable
    or as an attribute."""
    defined, referenced = {}, set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = f"{name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{f} ({where})" for f, where in defined.items() if f not in referenced)


def test_detects_unreferenced_private():
    sources = {"a.py": "def _used():\n    pass\n\ndef _orphan():\n    _used()\n",
               "b.py": "class C:\n    def _m(self):\n        pass\n    def __eq__(self, o):\n"
                       "        return o._m\n    def _gone(self):\n        pass\n"}
    assert unreferenced_privates(sources) == ["_gone (b.py:6)", "_orphan (a.py:4)"]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []
