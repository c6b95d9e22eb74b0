"""quadalg runs on the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadalg

PACKAGE = Path(quadalg.__file__).parent


def test_sources_import_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"quadalg"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []


def test_no_runtime_dependency_is_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_cli_import_loads_no_sympy():
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, quadalg.cli; print('sympy' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0 and run.stdout == "False\n"
