"""One store rule for every sparse integer store.

``algebra.int_content`` checks the terms of a store and returns it sorted and
divided by its gcd; every ``from_int`` and ``QTStructure`` goes through it.
Each malformed term below is written into one cell of each entry point, in
that entry point's own format over kZ₂ (dim 2), and each must be refused with
the same message. A dict store cannot repeat a key, and its cell is the dict's
own items, never an iterator, so those two cases are not given to the dict
stores. A dict store given a cell that is not a dict is refused with a
message that names the cell. Then each carrier, rebuilt from its own stores
with the scale and every integer times 6, must give ``==`` stores.
"""

import pytest

from hopfbrauer.algebra import StructureAlgebra, int_content
from hopfbrauer.hopf import HopfAlgebra, QTStructure
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4, build_rt
from hopfbrauer.yd import YDObject

KZ2_TABLE = [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1)]]]
KZ2 = StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), KZ2_TABLE, 1, name="kZ2")
KZ2_COP = [[(0, 0, 1)], [(1, 1, 1)]]
KZ2_S = (1, [{0: 1}, {1: 1}])
KZ2_H = HopfAlgebra.from_int(KZ2, (1, KZ2_COP), (1, {0: 1, 1: 1}), KZ2_S, KZ2_S)
ONE = (1, {(0, 0): 1})


def _triples(cell):
    """The cell as (k, 0, c) terms, keyed (k, 0)."""
    terms = [(k, 0, c) for k, c in cell]
    return iter(terms) if iter(cell) is cell else terms


# entry point: (True for a store keyed by pairs, True for a dict store, build(den, cell))
ENTRY_POINTS = {
    "table": (False, False, lambda den, cell: StructureAlgebra.from_int(
        ["1", "g"], (1, {0: 1}), [KZ2_TABLE[0], [KZ2_TABLE[1][0], cell]], den)),
    "unit": (False, True, lambda den, cell: StructureAlgebra.from_int(["1", "g"], (den, dict(cell)), KZ2_TABLE, 1)),
    "cop": (True, False, lambda den, cell: HopfAlgebra.from_int(KZ2, (den, [KZ2_COP[0], _triples(cell)]),
                                                               (1, {0: 1, 1: 1}), KZ2_S, KZ2_S)),
    "counit": (False, True, lambda den, cell: HopfAlgebra.from_int(KZ2, (1, KZ2_COP), (den, dict(cell)), KZ2_S, KZ2_S)),
    "S": (False, True, lambda den, cell: HopfAlgebra.from_int(KZ2, (1, KZ2_COP), (1, {0: 1, 1: 1}),
                                                               (den, [{0: 1}, dict(cell)]), KZ2_S)),
    "S_inv": (False, True, lambda den, cell: HopfAlgebra.from_int(KZ2, (1, KZ2_COP), (1, {0: 1, 1: 1}), KZ2_S,
                                                                 (den, [{0: 1}, dict(cell)]))),
    "images": (False, True, lambda den, cell: YDObject.from_int(KZ2_H, 2, images=(den, [[{0: 1}, {0: 1}],
                                                                                         [{1: 1}, dict(cell)]]))),
    "rho": (True, False, lambda den, cell: YDObject.from_int(KZ2_H, 2, rho=(den, [[(0, 0, 1)], _triples(cell)]))),
    "R": (True, True, lambda den, cell: QTStructure(KZ2_H, (den, {(k, 0): c for k, c in cell}), ONE)),
    "R_inv": (True, True, lambda den, cell: QTStructure(KZ2_H, ONE, (den, {(k, 0): c for k, c in cell}))),
}

# malformed case: (scale, cell, the message with {key} for the key of the bad
# term, the index k of that term, whether a dict store can be given it)
CASES = {
    "index=dim": (1, [(1, 1), (2, 1)], "sparse term index {key} is not in range(2){shape}", 2, True),
    "bool index": (1, [(True, 1)], "sparse term index {key} is not in range(2){shape}", True, True),
    "repeated index": (1, [(0, 1), (0, 2)], "sparse term index {key} occurs twice", 0, False),
    "zero": (1, [(1, 1), (0, 0)], "sparse term index {key} has a zero coefficient, not a nonzero int", 0, True),
    "float": (1, [(0, 0.5)], "sparse term index {key} has coefficient 0.5, not a nonzero int", 0, True),
    "scale 0": (0, [(1, 1)], "scale 0 is not a positive int", 0, True),
    "scale -1": (-1, [(1, 1)], "scale -1 is not a positive int", 0, True),
    "iterator": (1, [(1, 1)], "integer terms must be a collection, not an iterator", 0, False),
}


# every pair of an entry point and a case its format can hold
PAIRS = [(entry, case) for entry in ENTRY_POINTS for case in CASES if CASES[case][4] or not ENTRY_POINTS[entry][1]]


@pytest.mark.parametrize("entry, case", PAIRS, ids=[f"{entry}-{case}" for entry, case in PAIRS])
def test_every_entry_point_refuses_a_bad_term_with_the_same_message(entry, case):
    keyed_by_pairs, _, build = ENTRY_POINTS[entry]
    den, cell, message, k, _ = CASES[case]
    if case == "iterator":
        cell = iter(cell)
    key = (k, 0) if keyed_by_pairs else (k,)
    want = message.format(key=key, shape="×range(2)" if keyed_by_pairs else "")
    with pytest.raises(ValueError) as err:
        build(den, cell)
    assert str(err.value) == want


# a dict store given a cell that is not a dict: (build, the full message)
NOT_A_DICT = {
    "S column": (lambda h4: HopfAlgebra.from_int(h4.alg, h4.int_cop, h4.int_counit,
                                                 (1, [{0: 1}, {1: 1}, [(3, 1)], {2: -1}]), h4.int_s_inv),
                 "antipode column 2 must be {index: int}, not [(3, 1)]"),
    "S_inv column": (lambda h4: HopfAlgebra.from_int(h4.alg, h4.int_cop, h4.int_counit, h4.int_s,
                                                     (1, [{0: 1}, (1, 1), {3: -1}, {2: 1}])),
                     "antipode_inv column 1 must be {index: int}, not (1, 1)"),
    "image cell": (lambda h4: YDObject.from_int(h4, 1, images=(1, [[[(0, 1)], {0: 1}, {}, {}]])),
                   "image cell (0, 0) must be {index: int}, not [(0, 1)]"),
    "R": (lambda h4: QTStructure(h4, (1, [1, 2]), (1, {})), "R must be {(i, j): int}, not [1, 2]"),
    "R_inv": (lambda h4: QTStructure(h4, ONE, (1, ((0, 0, 1),))), "R⁻¹ must be {(i, j): int}, not ((0, 0, 1),)"),
}


@pytest.mark.parametrize("cell", NOT_A_DICT)
def test_a_cell_that_is_not_a_dict_is_refused(cell):
    # each raised AttributeError in the store rule's call site
    build, message = NOT_A_DICT[cell]
    with pytest.raises(ValueError) as err:
        build(build_h4())
    assert str(err.value) == message


def _times6(v: dict) -> dict:
    return {k: 6 * c for k, c in v.items()}


def test_a_store_times_6_is_the_same_store():
    h4 = build_h4()
    alg = h4.alg
    (den_u, unit), (den_m, table) = alg.int_unit, alg.int_sp
    table = [[tuple((k, 6 * c) for k, c in cell) for cell in row] for row in table]
    again = StructureAlgebra.from_int(alg.basis, (6 * den_u, _times6(unit)), table, 6 * den_m)
    assert (again.int_unit, again.int_sp) == (alg.int_unit, alg.int_sp)

    (den_d, cop), (den_e, counit) = h4.int_cop, h4.int_counit
    cop = 6 * den_d, [tuple((p, q, 6 * c) for p, q, c in row) for row in cop]
    s, s_inv = ((6 * den, [_times6(col) for col in cols]) for den, cols in (h4.int_s, h4.int_s_inv))
    again = HopfAlgebra.from_int(alg, cop, (6 * den_e, _times6(counit)), s, s_inv)
    stores = ("int_cop", "int_counit", "int_s", "int_s_inv")
    assert [getattr(again, name) for name in stores] == [getattr(h4, name) for name in stores]

    c = build_C(CFamilyDescriptor(3, 2, 5))
    (den_a, images), (den_c, rho) = c.int_images, c.int_rho
    images = 6 * den_a, [[_times6(v) for v in row] for row in images]
    rho = 6 * den_c, [tuple((a, k, 6 * x) for a, k, x in row) for row in rho]
    again = YDObject.from_int(h4, c.dim, c.alg, images, rho)
    assert (again.int_images, again.int_rho) == (c.int_images, c.int_rho)

    rt = build_rt(5)
    again = QTStructure(h4, *((6 * den, _times6(r)) for den, r in (rt.int_pairs, rt.int_inv)))
    assert (again.int_pairs, again.int_inv) == (rt.int_pairs, rt.int_inv)


def test_an_empty_cell_passes_at_once_and_an_iterator_is_still_refused():
    # an empty collection skips the checks; an iterator is truthy, even an
    # exhausted one, so it is refused whatever cells come before it
    message = "integer terms must be a collection, not an iterator"
    for cells in ([(), iter(())], [(), [], (t for t in [(0, 1)])], [{}.items(), (), (t for t in ())]):
        with pytest.raises(ValueError) as err:
            int_content(1, cells, 2)
        assert str(err.value) == message
    # a table of only empty cells has scale 1, whatever scale it is given
    assert int_content(9, [(), [], {}.items()], 2) == (1, [(), (), ()])
    assert StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), [[(), []], [[], ()]], 9).int_sp == (1, [[(), ()]] * 2)
