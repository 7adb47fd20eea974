"""Certificate guard: no assert statement in the library.  `python -O` and
PYTHONOPTIMIZE strip asserts, so a check written as one would stop running;
the library raises AssertionError itself instead."""

import ast
from pathlib import Path

import dmsiplan

SRC = Path(dmsiplan.__file__).resolve().parent


def _asserts(tree):
    """Line of each assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_library_has_no_assert_statement():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        (path.name, line)
        for path in files
        for line in _asserts(ast.parse(path.read_text()))
    ]
    assert found == []


def test_guard_flags_asserts_anywhere():
    tree = ast.parse("assert x\ndef f(v):\n    if v:\n        assert v, 'v'\n    return v\n")
    assert sorted(_asserts(tree)) == [1, 4]
    assert _asserts(ast.parse("if not x:\n    raise AssertionError('x')\n")) == []
