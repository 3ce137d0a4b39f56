"""The scaffolding the six recurrence tables share."""

import gc
import weakref
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod

import pytest
from reference_tables import MAPS, TRIANGULATIONS

from surfcount import bipartite, maps
from surfcount.bipartite import BipOneFaceTable, BipTable
from surfcount.errors import IntegralityError, MissingEntryError
from surfcount.maps import MapsCounts, MapsTable, OneFaceTable
from surfcount.poly import Poly
from surfcount.table import Memo, shift_weight, square_sum
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
def test_oneface_fill_keeps_a_filled_cell(cls):
    # a cell already in entries stays, and the next row reads it: 7 more
    # there moves row 6 by 7 times its coefficients over n + 1 = 7
    cell, readers = READERS[cls]
    true = cls().fill(6).entries
    tab = cls()
    tab.entries[cell] = true[cell] + 7
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
    """The charge-shift weight at g2_1 of row n1, u and the variable of
    slot `slot` shifting together, term by term: 2^(2+g2_1-g2_0) C(p, i)
    C(q, m-k-i) c u^i w^(m-k-i) x^k for the monomials c u^p w^q x^k of
    each cell (n1, g2_0), m = n1 - g2_1."""
    m, out = n1 - g2_1, {}
    for g2_0 in range(g2_1 % 2, g2_1 + 1, 2):
        for exps, c in rows(n1, g2_0).items():
            p, q, k = exps[0], exps[slot], exps[3 - slot]
            for i in range(p + 1):
                if 0 <= m - k - i <= q:
                    e = [i, 0, 0]
                    e[slot], e[3 - slot] = m - k - i, k
                    add = 2 ** (2 + g2_1 - g2_0) * comb(p, i) * comb(q, m - k - i) * c
                    out[tuple(e)] = out.get(tuple(e), 0) + add
    return Poly.from_terms(out)


def _expand_u(rows, n1, g2_1):
    """The same weight with u shifting alone, cell by cell: 2^r C(p, r) c
    u^(p-r) y for the monomials c u^p y of each cell (n1, g2_0), r = 2 +
    g2_1 - g2_0."""
    out = {}
    for g2_0 in range(g2_1 % 2, g2_1 + 1, 2):
        r = 2 + g2_1 - g2_0
        for (p, j, k), c in rows(n1, g2_0).items():
            if p >= r:
                out[p - r, j, k] = out.get((p - r, j, k), 0) + 2**r * comb(p, r) * c
    return Poly.from_terms(out)


@pytest.mark.parametrize("slot", [None, 1, 2], ids=["u", "z", "v"])
def test_charge_shift(slot):
    # the weights of a row cut at c are the row's charge shift with floor
    # n1 - c, split by degree
    def rows(n, g2):
        return HAND_ROWS.get((n, g2), Poly.zero())

    expand = _expand_u if slot is None else partial(_expand, slot=slot)
    for n1 in range(4):
        for top in range(6):
            c = min(n1, top)
            row = Poly.sum(rows(n1, g2) for g2 in range(c + 1))
            weights = split(row.charge_shift(slot, n1 - c), n1, 6)
            for g2_1, weight in enumerate(weights):
                expected = expand(rows, n1, g2_1) if g2_1 <= c else Poly.zero()
                assert weight == expected, (n1, top, g2_1)
    if slot == 1:
        # at all ones the (u, z) shift is the scalar weight: Vandermonde
        cc, h = MapsTable("cc").fill(10), MapsCounts().fill(10)
        for n1 in range(11):
            row = [h.value(n1, g) for g in range(n1 + 1)]
            weights = split(cc.shift_weight[n1, n1], n1, n1)
            for g2_1 in range(n1 + 1):
                assert weights[g2_1].evaluate() == shift_weight(n1, g2_1, row), (n1, g2_1)


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


def _double_factorial(m):
    return prod(range(m, 0, -2))


def exponential_row_sums(model: str, n_max: int) -> list:
    """Rows 1..n_max of the scalar table of model ("maps",
    "triangulations" or "bipartite") summed over the genus, from the
    exponential formula: with c = log A, maps give 4n c_n / 4^n for A(x)
    = sum over n of (4n-1)!! x^n / n!, triangulations 12n c_2n for A(y) =
    sum over even m of (3m-1)!! 2^(3m/2) y^m / (m! 6^m), and bipartite
    maps n c_n / 2^(n-1) for A(x) = sum over n of ((2n-1)!!)^2 x^n / n!.
    The log runs its recurrence m c_m = m a_m - sum over k < m of k c_k
    a_(m-k) in Fractions only."""
    order = 2 * n_max if model == "triangulations" else n_max
    if model == "maps":
        a = [Fraction(_double_factorial(4 * m - 1), factorial(m)) for m in range(order + 1)]
    elif model == "bipartite":
        a = [Fraction(_double_factorial(2 * m - 1) ** 2, factorial(m)) for m in range(order + 1)]
    else:
        a = [Fraction(_double_factorial(3 * m - 1) * 2 ** (3 * m // 2), factorial(m) * 6**m)
             if m % 2 == 0 else Fraction(0) for m in range(order + 1)]
    c = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        c[m] = a[m] - sum((k * c[k] * a[m - k] for k in range(1, m)), Fraction(0)) / m
    if model == "maps":
        return [4 * n * c[n] / 4**n for n in range(1, n_max + 1)]
    if model == "bipartite":
        return [n * c[n] / 2 ** (n - 1) for n in range(1, n_max + 1)]
    return [12 * n * c[2 * n] for n in range(1, n_max + 1)]


def _row_sums(value, n_max: int) -> list:
    return [sum(value(n, g2) for g2 in range(n + 2)) for n in range(1, n_max + 1)]


def test_scalar_row_sums():
    # every genus of maps rows 1..40 and triangulation rows 1..24
    assert _row_sums(MapsCounts().fill(40).value, 40) == exponential_row_sums("maps", 40)
    assert _row_sums(TriTable().fill(24).value, 24) == exponential_row_sums("triangulations", 24)


def test_bipartite_row_sums():
    # every genus of bipartite rows 1..20 at v = u, the table the scalar
    # bipartite counts come from, summed at all ones
    rows = _row_sums(BipTable(v_is_u=True).fill(20).count, 20)
    assert rows == exponential_row_sums("bipartite", 20)


@pytest.mark.slow
def test_scalar_tables_far_out():
    # every exact division passes up to maps 100 and triangulations 60
    h, t = MapsCounts().fill(100), TriTable().fill(60)
    for n in range(1, 101):   # Tutte (1963)
        assert h.value(n, 0) * factorial(n) * factorial(n + 2) == 2 * 3**n * factorial(2 * n), n
    for n in range(1, 61):    # OEIS A002005
        lhs = t.value(n, 0) * factorial(n + 2) * _double_factorial(n)
        assert lhs == 2 ** (2 * n + 1) * _double_factorial(3 * n), n
    assert {cell: h.value(*cell) for cell in MAPS} == MAPS
    assert {cell: t.value(*cell) for cell in TRIANGULATIONS} == TRIANGULATIONS
    assert _row_sums(h.value, 100) == exponential_row_sums("maps", 100)
    assert _row_sums(t.value, 60) == exponential_row_sums("triangulations", 60)
