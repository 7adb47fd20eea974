"""Exactness guard: no float literal and no float(...) call anywhere in the
library, so every delay, total and comparison stays a Fraction or an int.
The one allowed float is the decimal shown next to a fraction in CLI text."""

import ast
from pathlib import Path

import dmsiplan

SRC = Path(dmsiplan.__file__).resolve().parent
ALLOWED = {("cli.py", "_rational_text")}  # display only, never computed with


def _floats(tree, file_name):
    """(line, function, what) for each float literal or float(...) call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (file_name, function) not in ALLOWED:
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((node.lineno, function, f"literal {node.value!r}"))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append((node.lineno, function, "float(...) call"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_library_computes_with_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        (path.name, *hit)
        for path in files
        for hit in _floats(ast.parse(path.read_text()), path.name)
    ]
    assert found == []


def test_guard_flags_literals_and_calls():
    tree = ast.parse("x = 0.5\ndef f(v):\n    return float(v)\n")
    assert _floats(tree, "m.py") == [(1, None, "literal 0.5"), (3, "f", "float(...) call")]
    allowed = ast.parse("def _rational_text(v):\n    return float(v)\n")
    assert _floats(allowed, "cli.py") == []
    assert _floats(allowed, "coding.py") == [(2, "_rational_text", "float(...) call")]
