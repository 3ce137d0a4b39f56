from fractions import Fraction

import pytest

from surfcount.errors import IntegralityError
from surfcount.maps import (
    MapsCounts,
    MapsTable,
    OneFaceTable,
    ledoux,
    _row_cc,
    _row_kz,
    oneface_series,
    theta_series,
)
from surfcount.poly import Poly, U, Z

UZ = U * Z

# Hand-derived planar row n=3: the u^4 z coefficient is the number of rooted
# plane trees with 3 edges (Catalan 5), duality forces the z^4 u coefficient,
# and the published total 54 fixes the middle coefficients.
H30 = Poly.from_terms({(4, 1, 0): 5, (3, 2, 0): 22, (2, 3, 0): 22, (1, 4, 0): 5})


@pytest.fixture(scope="module")
def kz8():
    return MapsTable("kz").fill(8)


@pytest.fixture(scope="module")
def cc8():
    return MapsTable("cc").fill(8)


def test_initial_conditions(cc8):
    assert cc8.poly(1, 0) == UZ * (U + Z)
    assert cc8.poly(2, 1) == 5 * UZ * (U + Z)
    assert cc8.poly(2, 2) == 5 * UZ
    assert cc8.poly(1, 2).is_zero()  # below support: n < 2g
    assert cc8.poly(0, 0) == UZ      # engine "cc" boundary convention
    assert MapsTable("kz").poly(0, 0).is_zero()


def test_row3_planar_polynomial(kz8, cc8):
    assert kz8.poly(3, 0) == H30
    assert cc8.poly(3, 0) == H30


def test_published_counts(cc8):
    assert cc8.count(3, 3) == 41
    assert cc8.count(4, 4) == 509
    assert cc8.count(5, 5) == 8229
    assert cc8.count(6, 6) == 166377
    assert cc8.count(3, 4) == 0  # n < 2g


def test_engines_agree(kz8, cc8):
    assert kz8.entries.keys() == {(n, g2) for n in range(1, 9) for g2 in range(n + 1)}
    assert kz8.entries == cc8.entries


def test_single_step_entry_points(cc8, kz8):
    # one row step over a filled table reproduces the stored cells, all
    # genera of the row or those up to a cut
    for top in (5, 2):
        cells = [cc8.poly(5, g2) for g2 in range(top + 1)]
        assert _row_cc(5, top, cc8) == cells
        assert list(_row_kz(5, top, kz8)) == cells


def test_duality_homogeneity_positivity(cc8):
    for (n, g2), p in cc8.entries.items():
        assert p.is_homogeneous(n + 2 - g2), (n, g2)
        assert p.is_integral() and p.has_nonnegative_coeffs()
        swapped = Poly.from_terms({(j, i, 0): c for (i, j, _), c in p.items()})
        assert swapped == p, f"duality fails at {(n, g2)}"


def test_fast_path_matches_bivariate(cc8):
    assert MapsCounts().fill(8).entries == {cell: cc8.count(*cell) for cell in cc8.entries}
    assert cc8.count(2, 2) == 5
    assert MapsCounts().fill(2).value(2, 2) == 5
    assert MapsCounts().fill(6).value(6, 6) == 166377
    assert MapsCounts().fill(1).value(1, 3) == 0


def test_fast_path_values_are_ints():
    counts = MapsCounts().fill(25)
    assert all(type(v) is int for v in counts.entries.values())


def test_fast_path_rejects_non_divisible_sum():
    counts = MapsCounts()
    counts.entries[(1, 0)] += 1
    with pytest.raises(IntegralityError, match=r"h\[3,0\]"):
        counts.fill(3)


def test_totals_increase(cc8):
    totals = [sum(cc8.count(n, g2) for g2 in range(n + 1)) for n in range(1, 9)]
    assert totals[:5] == [3, 24, 297, 4896, 100278]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_theta_series_coefficients(cc8):
    theta = theta_series(cc8, 8)
    assert theta.coeff(2) == (UZ * (U + Z) + UZ).scale(Fraction(1, 4))
    assert theta.coeff(3).is_zero()
    for n in (2, 3, 4):
        expected = Poly.sum(cc8.poly(n, g2) for g2 in range(n + 1)).scale(
            Fraction(1, 4 * n)
        )
        assert theta.coeff(2 * n) == expected


def test_theta_square_low_order(cc8):
    # [t^4] of (theta truncated at t^4)^2: only the 2+2 split contributes
    theta = theta_series(cc8, 4)
    sq = theta * theta
    t2 = UZ * (U + Z + Poly.const(1))
    assert sq.coeff(4) == (t2 * t2).scale(Fraction(1, 16))


def test_ledoux_initials_and_steps():
    table = OneFaceTable().fill(8)
    assert table.value(3, 3) == 41
    assert table.value(3, 2) == 52
    assert table.value(1, 1) == 1
    assert table.value(2, 1) == 5
    # support bounds
    assert table.value(4, 9) == 0
    assert table.value(4, -1) == 0


def test_ledoux_matches_one_face_slice(cc8):
    table = OneFaceTable().fill(8)
    for n in range(1, 9):
        for g2 in range(n + 1):
            assert table.value(n, g2) == cc8.poly(n, g2).coeff((n + 1 - g2, 1, 0)), (n, g2)


def test_ledoux_single_step():
    # the step over rows 3..0, padded with zeros, is 5 times row 4
    table = OneFaceTable().fill(5)
    rows = [[table.value(m, g2) for g2 in range(9)] for m in (3, 2, 1, 0)]
    assert ledoux(4, *rows) == [5 * table.value(4, g2) for g2 in range(5)]
    assert table.value(4, 4) == 509


def test_oneface_series():
    table = OneFaceTable().fill(6)
    s = oneface_series(table, 8)
    assert s.coeff(2) == Poly.from_terms({(2, 0, 0): Fraction(1, 4), (1, 0, 0): Fraction(1, 4)})
    assert s.coeff(8).coeff((5, 0, 0)) == Fraction(14, 16)
