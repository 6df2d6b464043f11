"""Rules on the package source that the interpreter does not enforce."""

from __future__ import annotations

import ast
from pathlib import Path

import clusterkit


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may rely on one
    files = sorted(Path(clusterkit.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
