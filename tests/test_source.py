"""Rules the package source keeps, checked on its syntax trees."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lospace"


def test_no_assert_statements():
    """Invariants raise exceptions: python -O strips assert statements."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []



def test_no_global_statements():
    """No process-wide switches: module state is fixed at import.  The one
    exception is the kernels' lazy numpy import."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)
             and (path.name, node.names) != ("kernels.py", ["np"])]
    assert found == []
