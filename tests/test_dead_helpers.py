"""No helper without a caller: every module-level function, every non-dunder
method and every view of ``src/hopfbrauer`` is referenced somewhere in
``src/`` besides its own definition.

A function counts as referenced by its name (a call, a callback, a default)
or by an attribute of that name (``linalg.mat_det``), and an import into
``__init__`` counts too: that is the exported API. A method counts as
referenced by an attribute of its name (``x.name``) or by its name in a
class-level assignment (an alias). A view, a property or cached property
defined by a decorator or by a class-level ``cached_property(...)`` or
``property(...)``, counts as referenced by an attribute of its name only,
so a Fraction mirror of an integer store that nothing in ``src/`` reads is
found. ``ALLOWED`` names exactly the helpers that only the benchmark's tracer
(``perfbench/tracer.py``) holds, the guard's one exception; ROADMAP item 1
drops them from its ``TIMED`` list, and then they go or move into the tests.

No value without a reader either: a local that a function assigns and that
neither it nor a function nested in it reads (``dead_locals``; a name that
starts with ``_`` is exempt), and a name that a module imports and never
uses (``unused_imports``; the re-exports of ``__init__`` are exempt)."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfbrauer"

# held only by perfbench/tracer.py, until ROADMAP item 1 frees them
ALLOWED = {"antipode_from_bialgebra", "f0_g0_matrices", "kernel_basis"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
VIEW_MAKERS = {"property", "cached_property"}


def _maker(node) -> str | None:
    """The name of a decorator or a callee: ``property``, ``functools.cached_property``, …"""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_view(fn) -> bool:
    return any(_maker(d) in VIEW_MAKERS for d in fn.decorator_list)


def _references(node) -> tuple[Counter, Counter]:
    """(Name ids, Attribute attrs) in the subtree of node."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def unreferenced(src: pathlib.Path = SRC) -> set[str]:
    """The module-level functions, non-dunder methods and views of the
    package in ``src`` that nothing else in it references."""
    names, attrs, aliases = Counter(), Counter(), Counter()
    defs = []  # (reported name, bare name, kind: "function", "method" or "view", node)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        n, a = _references(tree)
        names += n
        attrs += a
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, FUNCTIONS):
                defs.append((node.name, node.name, "function", node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        if not (item.name.startswith("__") and item.name.endswith("__")):
                            kind = "view" if _is_view(item) else "method"
                            defs.append((f"{node.name}.{item.name}", item.name, kind, item))
                    elif isinstance(item, ast.Assign) and _maker(getattr(item.value, "func", None)) in VIEW_MAKERS:
                        defs += [(f"{node.name}.{t.id}", t.id, "view", item) for t in item.targets]
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        aliases += _references(item)[0]
    out = set()
    for label, name, kind, node in defs:
        own_names, own_attrs = _references(node)  # a recursive call is no caller
        count = attrs[name] - own_attrs[name]
        if kind == "method":
            count += aliases[name]
        elif kind == "function":
            count += names[name] - own_names[name]
        if not count:
            out.add(label)
    return out


def dead_locals(src: pathlib.Path = SRC) -> set[str]:
    """"module.function: name" for each local that a function in ``src``
    assigns (in its own scope, not in a nested function's) and that no code
    inside the function reads; ``global`` and ``nonlocal`` names are not its
    locals, and a name that starts with ``_`` is exempt."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, FUNCTIONS):
                continue
            stores, outer, todo = set(), set(), list(fn.body)
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    outer.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stores.add(node.id)
                if not isinstance(node, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
                    todo.extend(ast.iter_child_nodes(node))
            reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            out |= {f"{path.stem}.{fn.name}: {name}" for name in stores - reads - outer if not name.startswith("_")}
    return out


def unused_imports(src: pathlib.Path = SRC) -> set[str]:
    """"module: name" for each name that a module of ``src`` other than
    ``__init__`` imports, at any depth, and never names again."""
    out = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                out |= {f"{path.stem}: {name}" for name in bound - names}
    return out


def test_every_helper_has_a_caller():
    assert unreferenced() == ALLOWED


def test_the_allowed_helpers_are_held_by_the_tracer():
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    assert all(f'"{name}")' in tracer for name in ALLOWED)


def test_an_uncalled_helper_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    linalg = tmp_path / "linalg.py"
    linalg.write_text(linalg.read_text() + "\n\ndef orphan(v):\n    return orphan(v[1:]) if v else v\n")
    algebra = tmp_path / "algebra.py"
    # a method, and two Fraction mirrors of the integer table with no reader
    method = "    def mul_twice(self, x):\n        return x\n\n"
    mirror = "    @cached_property\n    def _sp(self):\n        return self.int_sp\n\n"
    alias = "    sp_view = cached_property(lambda self: self.int_sp)\n\n"
    algebra.write_text(algebra.read_text().replace("    def mul_int(", method + mirror + alias + "    def mul_int(", 1))
    found = {"orphan", "StructureAlgebra.mul_twice", "StructureAlgebra._sp", "StructureAlgebra.sp_view"}
    assert unreferenced(tmp_path) == ALLOWED | found


def test_no_value_goes_unread():
    assert dead_locals() == set()
    assert unused_imports() == set()


def test_a_dead_local_and_an_unused_import_are_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    algebra = tmp_path / "algebra.py"
    # a local assigned and never read, one read only by a nested function
    # (not dead), and an import that nothing names
    dead = "        unused = x\n        kept = x\n\n        def inner():\n            return kept\n\n"
    text = algebra.read_text().replace("import math\n", "import math\nimport random\n", 1)
    algebra.write_text(text.replace("        return _contract(", dead + "        return _contract(", 1))
    assert dead_locals(tmp_path) == {"algebra.mul_int: unused"}
    assert unused_imports(tmp_path) == {"algebra: random"}
