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


def test_no_hand_released_charges():
    """A charge lasts as long as a ``with`` block: no class has a close()
    that callers must remember, and only meter.py reaches the meter's
    private charge path."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{item.lineno} {node.name}.close"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "close"]
            elif (isinstance(node, ast.Attribute) and node.attr == "_charge"
                  and path.name != "meter.py"):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []
