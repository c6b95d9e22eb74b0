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


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports quadalg from here."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_cli_import_loads_no_sympy():
    run = _python("import sys, quadalg.cli; print('sympy' in sys.modules)")
    assert run.returncode == 0 and run.stdout == "False\n"


def test_no_module_loads_dataclasses_or_inspect():
    """`quadalg.verify` imports every module of the package but the CLI;
    none of them pays for `dataclasses`, which imports `inspect`."""
    run = _python("import sys, quadalg.verify; print({'dataclasses', 'inspect'} & set(sys.modules))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "set()\n"


def _loaded_after(code: str) -> set[str]:
    """The quadalg modules in sys.modules once `code` has run in a fresh
    interpreter without error."""
    run = _python(
        f"import sys\n{code}\n"
        "print(*(m for m in sys.modules if m.split('.')[0] == 'quadalg'))"
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def test_cli_import_loads_only_the_scalar_layer():
    assert _loaded_after("import quadalg.cli") == {
        "quadalg",
        "quadalg.cli",
        "quadalg.scalars",
    }


def _loaded_by_cli(*argv: str) -> set[str]:
    code = f"from quadalg.cli import main\nif main({list(argv)!r}):\n    sys.exit('exit != 0')"
    return _loaded_after(code)


@pytest.mark.parametrize(
    "argv",
    [("form", "7H + <1>", "--json"), ("hermitian", "<1,-1,2>", "--k", "3", "--json")],
    ids=["form", "hermitian"],
)
def test_form_commands_load_only_forms(argv):
    loaded = _loaded_by_cli(*argv)
    assert "quadalg.forms" in loaded
    heavy = {f"quadalg.{m}" for m in ("albert", "cayley", "descent", "rootsys", "verify")}
    assert loaded & heavy == set()


def test_rootsys_fold_loads_no_algebra_or_ledger():
    loaded = _loaded_by_cli("rootsys", "--type", "E6", "--fold", "--json")
    assert "quadalg.rootsys" in loaded
    heavy = {f"quadalg.{m}" for m in ("albert", "cayley", "descent", "verify")}
    assert loaded & heavy == set()
