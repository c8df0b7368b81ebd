"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import sorank

SRC = Path(sorank.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so a runtime check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in sorank: {found}"
