"""Runtime guards in the library must raise, so that they survive
``python -O``, which strips every ``assert`` statement."""

import ast
from pathlib import Path

import lin2complex

SRC = Path(lin2complex.__file__).parent


def test_library_has_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
