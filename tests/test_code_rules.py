"""Rules the package source keeps."""

import ast

from conftest import REPO


def test_no_assert_statements_in_package():
    """Model invariants must hold under `python -O`, which strips
    `assert` statements; raise SimulationHazard or RuntimeError."""
    found = []
    for path in sorted((REPO / "src" / "timerq").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
