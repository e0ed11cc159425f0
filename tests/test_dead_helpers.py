"""No helper without a caller: every module-level function and every
non-dunder method of ``src/hopfbrauer`` is referenced somewhere in ``src/``
besides its own definition.

A function counts as referenced by its name (a call, a callback, a default)
or by an attribute of that name (``linalg.mat_det``), and an import into
``__init__`` counts too: that is the exported API. A method counts as
referenced by an attribute of its name (``x.name``) or by its name in a
class-level assignment (an alias). A cached property is a view of its
carrier's state, built on first read (``unit``, ``counit``, ``QTStructure.r``),
not a helper, so it is not counted; a plain property is. ``ALLOWED`` names
exactly the helpers that only the benchmark's tracer (``perfbench/tracer.py``)
holds; ROADMAP item 1 drops them from its ``TIMED`` list, and then they go or
move into the tests."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfbrauer"

# held only by perfbench/tracer.py, until ROADMAP item 1 frees them
ALLOWED = {"antipode_from_bialgebra", "f0_g0_matrices", "kernel_basis"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_view(fn) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) == "cached_property" for d in fn.decorator_list)


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
    """The module-level functions and non-dunder, non-view methods of the
    package in ``src`` that nothing else in it references."""
    names, attrs, aliases = Counter(), Counter(), Counter()
    defs = []  # (reported name, bare name, is a method, node)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        n, a = _references(tree)
        names += n
        attrs += a
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, FUNCTIONS):
                defs.append((node.name, node.name, False, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        if not (item.name.startswith("__") and item.name.endswith("__")) and not _is_view(item):
                            defs.append((f"{node.name}.{item.name}", item.name, True, item))
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        aliases += _references(item)[0]
    out = set()
    for label, name, method, node in defs:
        own_names, own_attrs = _references(node)  # a recursive call is no caller
        count = attrs[name] - own_attrs[name]
        count += aliases[name] if method else names[name] - own_names[name]
        if not count:
            out.add(label)
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
    method = "    def mul_twice(self, x):\n        return x\n\n"
    algebra.write_text(algebra.read_text().replace("    def mul_basis(", method + "    def mul_basis(", 1))
    assert unreferenced(tmp_path) == ALLOWED | {"orphan", "StructureAlgebra.mul_twice"}
