"""Every function of the library is reached from code the library runs.

The walk starts from the functions of `cli` and from the module-level code
of every module (assignments, decorators, defaults), and follows names
transitively: a bare name resolves to its module's own definition or to
what `from .m import name` brings in, and `m.name` to module m's
definition.  A reached class reaches its whole body, methods included.
Every module-level function, public or private, must be reached: what
only the tests use lives in the tests.  As a reached class reaches all its
methods, a second gate asks that each method be named as an attribute
somewhere in the library, and a third that each module-level name the
library assigns be read by the library.
"""

import ast
from collections import Counter
from pathlib import Path

import quadalg

PACKAGE = Path(quadalg.__file__).parent

def _imports(tree) -> tuple[dict, dict]:
    """The names `from .m import x [as y]` binds (y -> (m, x)) and the
    modules `from . import m` binds, anywhere in the module."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return names, modules


def _trees(package: Path) -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}


def unreached_functions(package: Path = PACKAGE) -> list[str]:
    trees = _trees(package)
    defs = {
        m: {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for m, tree in trees.items()
    }
    bound = {m: _imports(tree) for m, tree in trees.items()}

    def refs(module, nodes):
        names, modules = bound[module]
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield (module, sub.id) if sub.id in defs[module] else names.get(sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    if sub.value.id in modules:
                        yield sub.value.id, sub.attr

    todo = [("cli", name) for name in defs["cli"]]
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                todo += refs(m, node.decorator_list + node.args.defaults + node.args.kw_defaults)
            elif not isinstance(node, ast.ClassDef):
                todo += refs(m, [node])
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached or key[1] not in defs.get(key[0], {}):
            continue
        reached.add(key)
        todo += refs(key[0], [defs[key[0]][key[1]]])
    return [
        f"{m}.{name}"
        for m in defs
        for name, node in defs[m].items()
        if isinstance(node, ast.FunctionDef) and (m, name) not in reached
    ]


def test_every_function_is_reached_from_what_the_library_runs():
    assert unreached_functions() == []


def test_the_walk_names_a_helper_that_only_dead_code_calls(tmp_path):
    (tmp_path / "cli.py").write_text("from . import algebra\n\ndef main():\n    return algebra.run()\n")
    (tmp_path / "algebra.py").write_text(
        "TABLE = [_table()]\n\n"
        "def _table():\n    return 1\n\n"
        "def run():\n    return _step()\n\n"
        "def _step():\n    return 2\n\n"
        "def dead():\n    return _dead_step()\n\n"
        "def _dead_step():\n    return 3\n\n"
        "def unused():\n    return 4\n"
    )
    assert unreached_functions(tmp_path) == ["algebra.dead", "algebra._dead_step", "algebra.unused"]


def second_spellings(package: Path = PACKAGE) -> list[str]:
    """The module-level functions whose body, past a docstring, is one
    `return` of an attribute of their only parameter or of a method call on
    it: `def mu(t): return t.mu` spells `t.mu` a second time."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            params = [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if len(params) != 1 or len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if isinstance(value, ast.Call):
                value = value.func
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == params[0]
            ):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_function_is_a_second_spelling_of_a_method_or_attribute():
    assert second_spellings() == []


def test_the_alias_gate_names_each_second_spelling(tmp_path):
    (tmp_path / "algebra.py").write_text(
        "def mu(t):\n    return t.mu\n\n"
        "def norm(x):\n    \"\"\"The norm.\"\"\"\n    return x.norm()\n\n"
        "def scaled(x, c=2):\n    return x.scale(c)\n\n"
        "def twice(x):\n    return 2 * x\n\n"
        "def first(x):\n    return x[0].mu\n\n"
        "def conj(x):\n    y = x\n    return y.conj()\n"
    )
    assert second_spellings(tmp_path) == ["algebra.mu", "algebra.norm"]


def unnamed_methods(package: Path = PACKAGE) -> list[str]:
    """The methods and properties of the library's classes whose name no
    attribute (`.name`) of the library spells outside their own `def`.  The
    check goes by name, not by type: any `.name` of that spelling counts,
    whichever object it reads.  Dunders and `_key` (the records' base calls
    it) are exempt."""
    trees = _trees(package)

    def attributes(node) -> Counter:
        return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

    named = sum((attributes(tree) for tree in trees.values()), Counter())
    return [
        f"{m}.{cls.name}.{fn.name}"
        for m, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name != "_key"
        and named[fn.name] == attributes(fn)[fn.name]
    ]


def test_every_method_is_named_by_the_library():
    assert unnamed_methods() == []


def test_the_method_gate_names_a_method_only_its_own_body_calls(tmp_path):
    (tmp_path / "algebra.py").write_text(
        "class Form:\n"
        "    def __init__(self, g):\n        self.g = g\n\n"
        "    def _key(self):\n        return self.g\n\n"
        "    def value(self, v):\n        return self.g * v\n\n"
        "    def again(self, v):\n        return self.again(v - 1) if v else 0\n\n"
        "    @property\n    def rank(self):\n        return 1\n\n"
        "    def unused(self):\n        return 2\n\n\n"
        "def run(form):\n    return form.value(form.rank)\n"
    )
    assert unnamed_methods(tmp_path) == ["algebra.Form.again", "algebra.Form.unused"]


def unread_names(package: Path = PACKAGE) -> list[str]:
    """The module-level names the library assigns and no library code
    reads: not as a bare name in their own module, not through what
    `from .m import name` binds elsewhere, and not as `m.name`.  Dunders
    are exempt."""
    trees, read = _trees(package), set()
    for m, tree in trees.items():
        names, modules = _imports(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(names.get(sub.id, (m, sub.id)))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
                read.add((sub.value.id, sub.attr))
    return [
        f"{m}.{name.id}"
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", None) or [node.target]
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and (m, name.id) not in read
        and not (name.id.startswith("__") and name.id.endswith("__"))
    ]


def test_every_module_level_name_is_read_by_the_library():
    assert unread_names() == []


def test_the_name_gate_names_a_constant_nothing_reads(tmp_path):
    (tmp_path / "cli.py").write_text("from . import algebra\nfrom .algebra import SCALE as S\n\nRUN = algebra.TABLE, S\n")
    (tmp_path / "algebra.py").write_text(
        "__all__ = ['run']\nTABLE = (1, 2)\nSCALE = 3\n_BASE = 4\nLIMIT: int = _BASE\nONE = 1\nX, Y = 5, 6\n\n"
        "def run():\n    return X\n"
    )
    assert unread_names(tmp_path) == ["algebra.LIMIT", "algebra.ONE", "algebra.Y", "cli.RUN"]
