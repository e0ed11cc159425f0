"""Spans and counters recorded from outside the hopfbrauer package.

The tracer replaces a function with a wrapper at the module that defines it
and at every hopfbrauer module that imported it by name, so every call path
goes through the wrapper. Nothing under ``src/`` is edited. Spans are kept
in memory as ``[name, start, end, parent, pass_id]`` lists and written out
by the caller when the pass ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# (layer, attribute path inside hopfbrauer.<layer>) for every span-timed function.
TIMED = [
    ("linalg", "mat_det"),
    ("linalg", "solve_sparse"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_linear"),
    ("linalg", "Matrix.inverse"),
    ("algebra", "StructureAlgebra.__init__"),
    ("algebra", "check_algebra_axioms"),
    ("algebra", "is_central_simple"),
    ("algebra", "sandwich_matrix"),
    ("algebra", "center"),
    ("algebra", "super_center"),
    ("hopf", "drinfeld_double"),
    ("hopf", "antipode_from_bialgebra"),
    ("hopf", "qt_structure"),
    ("hopf", "check_hopf_axioms"),
    ("hopf", "check_quasitriangular"),
    ("hopf", "check_hopf_morphism"),
    ("yd", "fg_maps"),
    ("yd", "sharp_product"),
    ("yd", "h_opposite"),
    ("yd", "end_yd"),
    ("yd", "check_yd_algebra"),
    ("yd", "is_h_azumaya"),
    ("yd", "induced_coaction"),
    ("yd", "induced_action"),
    ("yd", "inner_witness"),
    ("yd", "conjugation_implementer"),
    ("sweedler", "build_C"),
    ("sweedler", "aut_algebra"),
    ("sweedler", "aut_conjugate"),
    ("sweedler", "sharp_product_matches_presentation"),
    ("e2", "build_c_e2"),
    ("e2", "f0_g0_matrices"),
    ("e2", "theorem61_check"),
    ("e2", "not_subgroup_demo"),
    ("e2", "fg_decomposition_residuals"),
]

# Count-only hooks: calls here are too frequent for a span each.
MUL_VEC_CALLS = "algebra.mul_vec.calls"
MATRIX_ENTRIES = "linalg.Matrix.init.entries"
DET_NNZ = "linalg.mat_det.nnz"
COUNTERS = [MUL_VEC_CALLS, MATRIX_ENTRIES, DET_NNZ]


def _resolve(layer: str, path: str):
    """(holder, attribute, object) for ``hopfbrauer.<layer>.<path>``."""
    holder = sys.modules[f"hopfbrauer.{layer}"]
    *owners, attr = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, attr, getattr(holder, attr)


class Tracer:
    """Span recorder. One tracer serves one process; passes are told apart by
    ``pass_id``."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, holder, attr: str, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` at its definition and at every
        hopfbrauer module that bound it by name."""
        self._patch(holder, attr, wrapper)
        if isinstance(holder, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is holder or not (mod_name == "hopfbrauer" or mod_name.startswith("hopfbrauer.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        """Wrap every TIMED function and the count-only hooks."""
        import hopfbrauer  # noqa: F401  (loads every layer module)

        for layer, path in TIMED:
            holder, attr, original = _resolve(layer, path)
            name = f"{layer}.{path}"
            if path == "mat_det":
                wrapper = self._det_wrapper(name, original)
            else:
                wrapper = self.timed(name, original)
            self._replace_everywhere(holder, attr, original, wrapper)

        counts = self.counts
        algebra_cls, _, mul_vec = _resolve("algebra", "StructureAlgebra.mul_vec")

        def counted_mul_vec(alg, x, y):
            counts[MUL_VEC_CALLS] += 1
            return mul_vec(alg, x, y)

        self._patch(algebra_cls, "mul_vec", counted_mul_vec)

        matrix_cls, _, matrix_init = _resolve("linalg", "Matrix.__init__")

        def counted_init(m, data):
            matrix_init(m, data)
            counts[MATRIX_ENTRIES] += m.rows * m.cols

        self._patch(matrix_cls, "__init__", counted_init)

    def _det_wrapper(self, name: str, fn):
        timed = self.timed(name, fn)
        counts = self.counts

        def wrapper(m):
            # counted before the span opens, so the scan is not billed to mat_det
            counts[DET_NNZ] += sum(1 for row in m.data for v in row if v)
            return timed(m)

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, value = self._patches.pop()
            setattr(holder, attr, value)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time is a span's duration minus
        the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out
