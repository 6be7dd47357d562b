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


def test_every_public_name_has_a_caller_in_the_package():
    """No production code that only tests reach: every public top-level
    function and class, and every public method, is referenced somewhere
    in the package outside its own definition.  References are names and
    attributes in code (``__all__`` strings do not count), matched by the
    last component.  ``oracle.py`` is test-only by design, and
    ``SparseMatrix.from_dense`` and ``SparseMatrix.identity`` are input
    constructors for library users."""
    exempt = {"SparseMatrix.from_dense", "SparseMatrix.identity"}
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"}
    defs, refs = [], []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((name, node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs += [(name, f"{node.name}.{item.name}", item)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.attr, node.lineno))
    found = [f"{name}:{node.lineno} {qual}"
             for name, qual, node in defs
             if qual not in exempt
             and not any(ref == qual.rsplit(".", 1)[-1]
                         and not (where == name
                                  and node.lineno <= line <= node.end_lineno)
                         for where, ref, line in refs)]
    assert found == []


def test_no_unseeded_random():
    """A seed gives the same bits whatever the call history: no source
    builds a ``random.Random()`` (or a bare ``Random()``) with no seed,
    which draws from OS entropy."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr",
                         getattr(node.func, "id", None)) == "Random"
             and not node.args and not node.keywords]
    assert found == []
