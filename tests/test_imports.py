"""The lint step: every name a module of the package imports is used.

Only `__init__.py` imports names for others to use (its re-exports), so it
is the one module left out.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ehrpoly"


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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []
