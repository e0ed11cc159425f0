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
uses (``unused_imports``; the re-exports of ``__init__`` are exempt).

No package code reads a ``Matrix``'s dense ``data`` view (``data_reads``):
it is kept for the benchmark's tracer alone. ``CheckReport.data`` has the
same name, so ``unreferenced`` cannot tell the two apart; the guard allows
``.data`` only on a report (``rep``, ``….report``, or ``self`` in the class).

The tests' helpers follow the rule too: each function of ``tests/conftest.py``
and ``tests/reference.py`` has a caller in ``tests/``
(``uncalled_test_helpers``), and the oracle ``tests/reference.py`` names no
package kernel (``kernel_names``)."""

import ast
import pathlib
from collections import Counter
from functools import cache

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfbrauer"
TESTS = ROOT / "tests"
HELPER_MODULES = ("conftest", "reference")
# the package's contractions and certificates that the oracle re-derives
KERNELS = {"mul_int", "mul_vec", "_contract", "act_matrix", "FGContraction", "commutator_columns", "on_generators"}

# held only by perfbench/tracer.py, until ROADMAP item 1 frees them
ALLOWED = {"antipode_from_bialgebra", "f0_g0_matrices", "kernel_basis"}

# the names under which the package holds a CheckReport whose ``data`` it reads
REPORTS = {"rep", "report"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
VIEW_MAKERS = {"property", "cached_property"}


@cache
def _tree(text: str) -> ast.Module:
    """``ast.parse``, once per text; no guard mutates a tree."""
    return ast.parse(text)


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
        tree = _tree(path.read_text())
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
        for fn in ast.walk(_tree(path.read_text())):
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
        tree = _tree(path.read_text())
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


def data_reads(src: pathlib.Path = SRC) -> set[str]:
    """"module:line" for each ``.data`` that code in ``src`` reads off anything
    but a ``CheckReport``: ``rep``, ``….report``, or ``self`` inside the class."""
    out = set()
    for path in sorted(src.glob("*.py")):
        tree = _tree(path.read_text())
        own = {id(n) for c in ast.walk(tree) if getattr(c, "name", None) == "CheckReport" for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "data" and id(node) not in own:
                if getattr(node.value, "id", getattr(node.value, "attr", None)) not in REPORTS:
                    out.add(f"{path.stem}:{node.lineno}")
    return out


def test_no_package_code_reads_a_matrix_data_view():
    assert data_reads() == set()


def test_a_matrix_data_read_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # operator_to_vec reading the dense view again, as it did before integer rows
    algebra = tmp_path / "algebra.py"
    loop = ("    for p, (den, v) in enumerate(m.int_rows):\n        for q, x in v.items():\n"
            "            out[q * n + p] = Fraction(x, den)\n")
    dense = "    for p in range(n):\n        for q in range(n):\n            out[q * n + p] = m.data[p][q]\n"
    text = algebra.read_text()
    assert loop in text
    text = text.replace(loop, dense, 1)
    algebra.write_text(text)
    line = text[:text.index("m.data[p][q]")].count("\n") + 1
    assert data_reads(tmp_path) == {f"algebra:{line}"}


def uncalled_test_helpers(tests: pathlib.Path = TESTS) -> set[str]:
    """"module.function" for each function of ``conftest`` and ``reference``
    that no module imports and names or reads as an attribute, and that no
    other statement of its own module names."""
    trees = {path.stem: _tree(path.read_text()) for path in sorted(tests.glob("*.py"))}
    called = set()
    for tree in trees.values():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in HELPER_MODULES:
                called |= {(node.module, a.name) for a in node.names if (a.asname or a.name) in names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in HELPER_MODULES:
                called.add((node.value.id, node.attr))
    out = set()
    for stem in HELPER_MODULES:
        names = Counter(n.id for n in ast.walk(trees[stem]) if isinstance(n, ast.Name))
        for fn in trees[stem].body:
            if isinstance(fn, FUNCTIONS) and (stem, fn.name) not in called:
                own = sum(isinstance(n, ast.Name) and n.id == fn.name for n in ast.walk(fn))
                if names[fn.name] == own:
                    out.add(f"{stem}.{fn.name}")
    return out


def kernel_names(path: pathlib.Path = TESTS / "reference.py") -> set[str]:
    """The names, attributes and imports in ``path`` that are in ``KERNELS``
    or are a ``check_*`` or a ``*_failures``."""
    tree = _tree(path.read_text())
    found = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) for n in ast.walk(tree)}
    found = {x for x in found if isinstance(x, str)}
    return {x for x in found if x in KERNELS or x.startswith("check_") or x.endswith("_failures")}


def test_every_test_helper_has_a_caller():
    assert uncalled_test_helpers() == set()


def test_an_uncalled_test_helper_is_found(tmp_path):
    for path in TESTS.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # a reader that only calls itself, and a reference imported, never named
    conftest = tmp_path / "conftest.py"
    conftest.write_text(conftest.read_text() + "\n\ndef orphan(a):\n    return orphan(a.alg) if a else a.int_sp\n")
    ref = tmp_path / "reference.py"
    ref.write_text(ref.read_text() + "\n\ndef unread(a):\n    return a\n")
    (tmp_path / "test_stub.py").write_text("from reference import unread\n")
    assert uncalled_test_helpers(tmp_path) == {"conftest.orphan", "reference.unread"}


def test_the_oracle_calls_no_package_kernel(tmp_path):
    assert kernel_names() == set()
    ref = tmp_path / "reference.py"
    text = (TESTS / "reference.py").read_text()
    ref.write_text(text.replace("    ik = dict(mul_basis(a, i, k))", "    ik = a.mul_vec(i, k)", 1))
    assert kernel_names(ref) == {"mul_vec"}
    ref.write_text(text + "\ncheck_module(a.module_failures)\n")
    assert kernel_names(ref) == {"check_module", "module_failures"}
