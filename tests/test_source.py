"""Checks on the package source itself."""

import ast
from pathlib import Path

import a1embed


def test_package_has_no_assert_statement():
    # invariants raise typed errors: `python -O` strips assert statements
    found = []
    for path in sorted(Path(a1embed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
