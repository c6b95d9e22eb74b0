"""Exactness gate: every true division in the library goes through
`scalars.div`, and no float enters it.  An int divided by an int with `/`
is a float in Python, so a stray `/` on two integral values would turn an
exact computation inexact without an error.  `forms` and `rootsys` keep
their values in the canonical form of `scalars` (an int when integral), so
neither makes a `Fraction(...)` call of its own."""

import ast
from pathlib import Path

import quadalg


CANONICAL_MODULES = ("forms.py", "rootsys.py")


def _violations(source: str, name: str) -> list[str]:
    """`/` or `/=` outside the function `div` of scalars.py, float
    literals, `float(...)` calls and, in `CANONICAL_MODULES`,
    `Fraction(...)` calls, as "name:line what" strings."""
    tree = ast.parse(source, name)
    allowed = set()
    if name == "scalars.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "div":
                allowed.update(map(id, ast.walk(node)))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if id(node) not in allowed:
                out.append((node.lineno, "division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, "float literal"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            out.append((node.lineno, "float call"))
        elif (
            name in CANONICAL_MODULES
            and isinstance(node, ast.Call)
            and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ):  # `Fraction(...)` or `fractions.Fraction(...)`
            out.append((node.lineno, "Fraction call"))
    return [f"{name}:{line} {what}" for line, what in sorted(out)]


def test_library_divides_only_in_div_and_has_no_floats():
    sources = sorted(Path(quadalg.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"scalars.py", "exactmat.py", "forms.py", "rootsys.py"}
    found = [v for path in sources for v in _violations(path.read_text(), path.name)]
    assert found == []


def test_the_gate_sees_each_kind_of_violation():
    source = "\n".join(
        [
            "def div(a, b):",
            "    return a / b",
            "def half(a):",
            "    return a / 2",
            "def scale(a):",
            "    a /= 3",
            "    return a * 0.5 + float('1')",
            "x = 1 // 2",  # floor division stays exact
        ]
    )
    assert _violations(source, "scalars.py") == [
        "scalars.py:4 division",
        "scalars.py:6 division",
        "scalars.py:7 float call",
        "scalars.py:7 float literal",
    ]
    # only scalars.div may divide
    assert "forms.py:2 division" in _violations(source, "forms.py")
    # forms and rootsys build no Fraction; the other modules may
    source = "import fractions\nhalf = fractions.Fraction(1, 2)\nthird = Fraction(1, 3)\n"
    assert _violations(source, "forms.py") == ["forms.py:2 Fraction call", "forms.py:3 Fraction call"]
    assert _violations(source, "rootsys.py") == ["rootsys.py:2 Fraction call", "rootsys.py:3 Fraction call"]
    assert _violations(source, "cayley.py") == []
