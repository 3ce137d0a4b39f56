"""The scaffolding the six recurrence tables share."""

import gc
import weakref
from fractions import Fraction
from math import comb

import pytest

from surfcount import bipartite, maps
from surfcount.bipartite import BipOneFaceTable, BipTable
from surfcount.errors import IntegralityError, MissingEntryError
from surfcount.maps import MapsCounts, MapsTable, OneFaceTable
from surfcount.poly import Poly
from surfcount.table import Memo, square_sum
from surfcount.triangulations import TriTable

split = Poly.parts_by_degree

# one cell of each table that a fresh table has not filled
UNFILLED = {
    MapsTable: (5, 0),
    MapsCounts: (5, 0),
    OneFaceTable: (5, 0),
    BipTable: (4, 0),
    BipOneFaceTable: (5, 1, 1),
    TriTable: (5, 0),
}


def test_each_table_defines_fill_and_entries():
    # the per-layer tracer wraps cls.__dict__["fill"]: a fill inherited
    # from the base class would only fail in the traced benchmark
    for cls in UNFILLED:
        assert "fill" in cls.__dict__, cls.__name__
        assert isinstance(cls().entries, dict), cls.__name__
    # and it names the maps fill's metric by the table's engine
    assert [MapsTable(engine).engine for engine in ("cc", "kz")] == ["cc", "kz"]


@pytest.mark.parametrize("cls", list(UNFILLED), ids=lambda cls: cls.__name__)
def test_unfilled_cell_raises(cls):
    table = cls()
    read = table.poly if hasattr(table, "poly") else table.value
    cell = UNFILLED[cls]
    with pytest.raises(MissingEntryError) as info:
        read(*cell)
    assert str(info.value) == f"{cls.NAME}[{', '.join(map(str, cell))}] not filled yet"


@pytest.mark.parametrize("fill", [
    lambda: MapsTable("kz").fill(6),
    lambda: MapsTable("cc").fill(6),
    lambda: MapsCounts().fill(6),
    lambda: OneFaceTable().fill(6),
    lambda: BipTable().fill(5),
    lambda: BipOneFaceTable().fill(6),
    lambda: TriTable().fill(4),
], ids=["MapsTable-kz", "MapsTable-cc", "MapsCounts", "OneFaceTable", "BipTable",
        "BipOneFaceTable", "TriTable"])
def test_no_table_lives_in_a_reference_cycle(fill):
    # with the collector off, only reference counting can free the table
    gc.disable()
    try:
        table = fill()
        memos = [m for m in vars(table).values() if isinstance(m, Memo)]
        assert all(memos), "every memo is populated"
        ref = weakref.ref(table)
        del table, memos
        assert ref() is None, "table kept alive by a reference cycle"
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", [MapsCounts, TriTable], ids=lambda cls: cls.__name__)
def test_scalar_fill_bounds(cls):
    # each fill recomputes every row, so a grown bound reads no truncated row
    full = cls().fill(20)
    grown = cls().fill(12, 3).fill(20)
    assert grown.entries == full.entries
    assert cls().fill(20, 3).entries == {cell: v for cell, v in full.entries.items()
                                         if cell[1] <= 3}
    assert list(vars(grown)) == ["entries"], "a scalar table holds only its cells"


ONEFACE_TABLES = [OneFaceTable, BipOneFaceTable]


@pytest.mark.parametrize("cls", ONEFACE_TABLES, ids=lambda cls: cls.__name__)
def test_oneface_fill_bounds(cls):
    # a grown fill reads the rows it has, and the table holds only its cells
    full = cls().fill(30)
    grown = cls().fill(12).fill(30)
    assert list(grown.entries.items()) == list(full.entries.items())
    assert list(vars(grown)) == ["entries"], "a one-face table holds only its cells"


# a cell, and the cells of row 6 that read it, by the coefficient each
# step gives it: (8n-2) and -(4n-1) for u[n-1, g2] and u[n-1, g2-1]; -(4n-1),
# (4n-1), (4n-1) for b[n-1, i, j], b[n-1, i-1, j] and b[n-1, i, j-1]
READERS = {
    OneFaceTable: ((5, 2), {(6, 2): 46, (6, 3): -23}),
    BipOneFaceTable: ((5, 2, 1), {(6, 2, 1): -23, (6, 3, 1): 23, (6, 2, 2): 23}),
}


@pytest.mark.parametrize("cls", ONEFACE_TABLES, ids=lambda cls: cls.__name__)
def test_oneface_fill_recomputes_a_held_cell(cls):
    # a cell held in a row with cells missing is computed again with its
    # row; held in a complete row, it is read: 7 more there moves row 6 by
    # 7 times its coefficients over n + 1 = 7
    cell, readers = READERS[cls]
    true = cls().fill(6).entries
    tab = cls()
    tab.entries[cell] = true[cell] + 7
    assert tab.fill(6).entries == true
    tab = cls().fill(5)
    tab.entries[cell] += 7
    tab.fill(6)
    moved = {key: tab.entries[key] - v for key, v in true.items() if tab.entries[key] != v}
    assert moved == {cell: 7, **readers}


@pytest.mark.parametrize("cls, seed, message, last, bad", [
    (OneFaceTable, ((3, 3), 42), r"oneface\[5,3\]: 43072 not divisible by 6", (5, 2), (5, 3)),
    (BipOneFaceTable, ((3, 1, 1), 5), r"bip-oneface\[5,1,1\]: 1234 not divisible by 6",
     (4, 4, 1), (5, 1, 1)),
], ids=["OneFaceTable", "BipOneFaceTable"])
def test_oneface_fill_checks_each_division(cls, seed, message, last, bad):
    # a wrong seed breaks an exact division two rows up; the cells before
    # it are written, in order, and it is not
    tab = cls()
    tab.entries[seed[0]] = seed[1]
    with pytest.raises(IntegralityError, match=rf"^{message}$"):
        tab.fill(8)
    assert list(tab.entries)[-1] == last and bad not in tab.entries


@pytest.mark.parametrize("cls, seed, drop, message, bad", [
    (MapsCounts, (2, 0), 8, r"h\[3,0\] = -58", (3, 0)),
    (TriTable, (2, 1), 320, r"t\[3,1\] = -2227", (3, 1)),
    (OneFaceTable, (3, 0), 60, r"oneface\[4,0\] = -346", (4, 0)),
    (BipOneFaceTable, (3, 1, 1), 60, r"bip-oneface\[4,1,2\] = -159", (4, 1, 2)),
], ids=["MapsCounts", "TriTable", "OneFaceTable", "BipOneFaceTable"])
def test_int_fill_checks_each_sign(cls, seed, drop, message, bad):
    # a lowered seed makes an exact division come out negative one row
    # up; the shared cell check raises before that cell is written
    tab = cls()
    tab.entries[seed] -= drop
    with pytest.raises(IntegralityError, match=rf"^{message} is negative$"):
        tab.fill(5)
    assert bad not in tab.entries


# small cells by (n, g2), exponents (u, z, v), each of degree n + 2 - g2;
# one has a denominator
HAND_ROWS = {
    (1, 0): Poly.from_terms({(2, 1, 0): 3, (1, 1, 1): -1, (0, 2, 1): 2}),
    (1, 1): Poly.from_terms({(1, 0, 1): Fraction(1, 3), (0, 1, 1): Fraction(5, 2)}),
    (2, 0): Poly.from_terms({(3, 1, 0): 1, (1, 2, 1): 4, (2, 0, 2): -7}),
    (2, 2): Poly.from_terms({(1, 1, 0): 6, (0, 0, 2): 1}),
}


def _expand(rows, n1, g2_1, slot):
    """The charge-shift weight at g2_1 of row n1, u and the variable w of
    slot `slot` (None: u alone) shifting together, term by term:
    2^(2+g2_1-g2_0) C(p, i) C(q, s-i) c u^i w^(s-i) x for the monomials c
    u^p w^q x of each cell (n1, g2_0), x of degree k, s = n1 - g2_1 - k."""
    out = {}
    for g2_0 in range(g2_1 % 2, g2_1 + 1, 2):
        for exps, c in rows(n1, g2_0).items():
            x = [0 if k in (0, slot) else e for k, e in enumerate(exps)]
            p, q, s = exps[0], 0 if slot is None else exps[slot], n1 - g2_1 - sum(x)
            for i in range(max(0, s - q), min(p, s) + 1):
                e = list(x)
                e[0] += i
                e[slot or 0] += s - i
                add = 2 ** (2 + g2_1 - g2_0) * comb(p, i) * comb(q, s - i) * c
                out[tuple(e)] = out.get(tuple(e), 0) + add
    return Poly.from_terms(out)


@pytest.mark.parametrize("slot", [None, 1, 2], ids=["u", "z", "v"])
def test_charge_shift(slot):
    # the weights of a row cut at c are the row's charge shift with floor
    # n1 - c, split by degree
    def rows(n, g2):
        return HAND_ROWS.get((n, g2), Poly.zero())

    for n1 in range(4):
        for top in range(6):
            c = min(n1, top)
            row = Poly.sum(rows(n1, g2) for g2 in range(c + 1))
            weights = split(row.charge_shift(slot, n1 - c), n1, 6)
            for g2_1, weight in enumerate(weights):
                expected = _expand(rows, n1, g2_1, slot) if g2_1 <= c else Poly.zero()
                assert weight == expected, (n1, top, g2_1)
    if slot == 1:
        # at all ones the (u, z) shift is the scalar weight, a sum over
        # g2_0 <= g2_1 of the same parity: Vandermonde
        cc, h = MapsTable("cc").fill(10), MapsCounts().fill(10)
        for n1 in range(11):
            weights = split(cc.shift_weight[n1, n1], n1, n1)
            for g2_1 in range(n1 + 1):
                scalar = sum(comb(n1 + 2 - g2_0, n1 - g2_1) * 2 ** (2 + g2_1 - g2_0)
                             * h.value(n1, g2_0) for g2_0 in range(g2_1 % 2, g2_1 + 1, 2))
                assert weights[g2_1].evaluate() == scalar, (n1, g2_1)


def test_square_sum_reads_only_nonzero_splits():
    # the row square is the plain sum over every split of (m, g2), and it
    # reads no row below 0, where a factor would be zero
    def cells(n, g2):
        return HAND_ROWS.get((n, g2), Poly.from_terms({(n + 2 - g2, 0, 0): n + g2 + 1}))

    held = {}

    def rows(n):
        assert n >= 0, n
        if n not in held:
            held[n] = Poly.sum(cells(n, g2) for g2 in range(n + 1))
        return held[n]

    def every_split(m, g2):
        return Poly.sum(weight(n3, m - n3) * cells(n3 - 1, ga) * cells(m - n3 - 1, g2 - ga)
                        for ga in range(g2 + 1) for n3 in range(m + 1)
                        if ga < n3 and g2 - ga < m - n3)

    def weight(n3, n4):
        return n3 * n4 + 1

    for m in range(8):
        square = split(Poly.dot(square_sum(rows, m, weight)), m + 2, 6)
        for g2 in range(6):
            assert square[g2] == every_split(m, g2), (m, g2)


# cells of degree 5, the degree of row (5, 2), each failing one check
BAD_CELLS = {
    "non-integral": Poly.from_terms({(5, 0, 0): Fraction(1, 2)}),
    "inhomogeneous": Poly.from_terms({(5, 0, 0): 1, (1, 0, 0): 1}),
    "negative": Poly.from_terms({(5, 0, 0): -1}),
}


@pytest.mark.parametrize("bad", list(BAD_CELLS))
@pytest.mark.parametrize("table, module, rec", [
    (lambda: MapsTable("cc"), maps, "_row_cc"),
    (lambda: MapsTable("kz"), maps, "_row_kz"),
    (BipTable, bipartite, "bip_row"),
], ids=["MapsTable-cc", "MapsTable-kz", "BipTable"])
def test_polynomial_step_checks_each_cell(monkeypatch, table, module, rec, bad):
    step = getattr(module, rec)

    def broken(n, top, tab):
        # lazily, so that engine kz's sweep up the row still reads each
        # cell after it is written
        for g2, poly in enumerate(step(n, top, tab)):
            yield BAD_CELLS[bad] if (n, g2) == (5, 2) else poly
    monkeypatch.setattr(module, rec, broken)
    tab = table()
    with pytest.raises(IntegralityError, match=rf"^{tab.NAME}\[5,2\] "):
        tab.fill(5)
    assert (5, 1) in tab.entries and (5, 2) not in tab.entries


POLY_TABLES = [lambda: MapsTable("cc"), lambda: MapsTable("kz"), BipTable]
POLY_IDS = ["MapsTable-cc", "MapsTable-kz", "BipTable"]


@pytest.mark.parametrize("table", POLY_TABLES, ids=POLY_IDS)
def test_polynomial_fill_bounds(table):
    # a fill cut at g2_max holds the uncapped cells up to it, in the same
    # order, and no cell above it but the seeds
    full = table().fill(9)
    for cap in (0, 1, 3):
        capped = table().fill(9, cap)
        kept = [(cell, poly) for cell, poly in full.entries.items()
                if cell[1] <= cap or cell in capped.SEEDS]
        assert list(capped.entries.items()) == kept, cap
    # growing the bound later fills the rest, and the cells are the same
    assert table().fill(9, 1).fill(9).entries == full.entries


@pytest.mark.parametrize("cap", [None, 2], ids=["uncut", "cut-2"])
@pytest.mark.parametrize("table", POLY_TABLES, ids=POLY_IDS)
def test_rows_split_back_into_their_cells(table, cap):
    # genus is degree: each row memo is its cells summed, and split by
    # degree gives them back
    tab = table().fill(9, cap)
    assert len(tab.row) > 9
    for (m, c), row in tab.row.items():
        assert split(row, m + 2, c) == [tab.poly(m, g2) for g2 in range(c + 1)], (m, c)
    if getattr(tab, "engine", None) == "kz":
        # engine kz's sweep leaves the weights of each row it fills, and
        # they are the ones computed afresh from the cells
        swept = {(n, n if cap is None else min(n, cap)) for n in range(3, 10)}
        assert swept <= tab.shift_weight.keys()
        for (n, c), weight in tab.shift_weight.items():
            assert weight == tab.row[n, c].charge_shift(None, n - c), (n, c)


@pytest.mark.parametrize("cap", [None, 2], ids=["uncut", "cut-2"])
def test_v_is_u_weights_are_the_two_slot_ones(cap):
    # at v = u the cells have no v, so the shift of u alone gives the
    # weights that u and v shifting together would
    tab = BipTable(v_is_u=True).fill(10, cap)
    assert len(tab.shift_weight) >= 8
    for (m, c), weight in tab.shift_weight.items():
        assert weight == tab.row[m, c].charge_shift(2, m - c), (m, c)
