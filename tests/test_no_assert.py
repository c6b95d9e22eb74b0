"""Library invariants must hold under `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
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


def test_optimized_run_prints_the_same():
    """`python -O` must not change what the CLI prints."""
    paths = [str(Path(quadalg.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["-m", "quadalg.cli", "form", "<-17/9,12650/4,-425/9,7/4>", "--json"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *argv], capture_output=True, text=True, env=env
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
