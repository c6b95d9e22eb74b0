"""Library invariants must hold under `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import quadalg


def test_library_raises_instead_of_asserting():
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
