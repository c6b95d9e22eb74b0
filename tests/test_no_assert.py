"""Library invariants must hold under `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadalg


def test_library_raises_instead_of_asserting():
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert asserts == []


def _raises_assertion_error(node) -> bool:
    """`raise AssertionError` or `raise AssertionError(...)`: a broken
    invariant is a RuntimeError in this library."""
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_imports_no_random():
    """Identities are proved on generic elements, never on random samples."""
    sources = sorted(Path(quadalg.__file__).parent.rglob("*.py"))
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "random" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "random"
    ]
    assert imports == []


def test_only_scalars_asks_whether_a_rational_is_a_square():
    """Whether K = Q(sqrt k) is a field is decided once, by
    `scalars.field_parameter`: no other module calls `is_square`."""
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    assert "scalars.py" in {path.name for path in sources}
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "is_square"
    ]
    assert calls == []


# the classes that define `_key()`, and why their key is not their fields
OWN_KEYS = {
    "_Frozen": "the default: the fields",
    "Similitude": "mu is derived from the matrix",
    "WittInvariants": "a mappingproxy does not pickle or copy",
    "Laurent": "its constructor takes (monomial, c) pairs, not the term dict",
    "DiagonalForm": "no slots: its __dict__ also holds per-form caches",
}


def test_only_the_frozen_base_blocks_assignment_and_pickles():
    """Every immutable value inherits `__setattr__` and `__reduce__` from
    `scalars._Frozen`; no class spells them out again.  Its fields are
    written by the base's slot setters, never by `object.__setattr__` or a
    setter pulled out of a class `__dict__` elsewhere, and only the
    classes of `OWN_KEYS` define `_key()`."""
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in sources]
    classes = [
        (path, node)
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    defined = [
        f"{path.name}:{item.lineno} {node.name}.{name}"
        for path, node in classes
        if node.name != "_Frozen"
        for item in node.body
        for name in _defined_names(item)
        if name in ("__setattr__", "__reduce__")
    ]
    assert defined == []
    keyed = {n.name for _, n in classes for item in n.body if "_key" in _defined_names(item)}
    assert keyed == set(OWN_KEYS)
    in_base = {id(n) for _, node in classes if node.name == "_Frozen" for n in ast.walk(node)}
    writes = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (ast.unparse(node) == "object.__setattr__" or node.attr == "__set__")
        and id(node) not in in_base
    ]
    assert writes == []


def _defined_names(statement) -> list[str]:
    """The names a statement of a class body binds: a `def`, or the plain
    names of an assignment such as `__eq__, __hash__ = ...`."""
    if isinstance(statement, ast.FunctionDef):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [n.id for t in statement.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


@pytest.mark.parametrize(
    "argv",
    [
        ["form", "<-17/9,12650/4,-425/9,7/4>", "--json"],
        ["verify-paper", "--json", "{out}"],
    ],
    ids=["form", "verify-paper"],
)
def test_optimized_run_prints_the_same(tmp_path, argv):
    """`python -O` must not change what the CLI prints or writes."""
    paths = [str(Path(quadalg.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(runs)}.json"
        args = [a.format(out=out) for a in argv]
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "quadalg.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        runs.append((proc, out.read_text() if out.exists() else None))
    (plain, plain_file), (optimized, optimized_file) = runs
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert plain_file == optimized_file
    if "{out}" in argv:
        assert '"open-question": 2' in plain_file
