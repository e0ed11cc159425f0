"""Deterministic work counts: the Drinfeld double is built without the dense
product and without linear solves, so a regression to either shows here
without timing noise."""

from collections import Counter

from hopfbrauer import hopf
from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.e2 import build_e2


def test_drinfeld_double_of_e2_uses_no_dense_product_and_no_solve(monkeypatch):
    e2 = build_e2()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(StructureAlgebra, "mul_vec", counted("mul_vec", StructureAlgebra.mul_vec))
    for name in ("antipode_from_bialgebra", "qt_structure", "solve_sparse"):
        monkeypatch.setattr(hopf, name, counted(name, getattr(hopf, name)))

    double, _ = hopf.drinfeld_double(e2)
    assert double.dim == 64
    assert counts == Counter()
