from fractions import Fraction

import pytest

from surfcount.errors import IntegralityError, MissingEntryError
from surfcount.triangulations import TriTable, double_denominator, xi_series


@pytest.fixture(scope="module")
def tri10():
    return TriTable().fill(10)


def test_initial_conditions(tri10):
    assert tri10.value(1, 0) == 4
    assert tri10.value(1, 1) == 9
    assert tri10.value(1, 2) == 7
    assert tri10.value(2, 3) == 128
    assert tri10.value(1, 3) == 0   # below support: n < 2g - 1


def test_published_counts(tri10):
    assert tri10.value(3, 0) == 336
    assert tri10.value(3, 4) == 3885
    assert tri10.value(5, 5) == 17742726
    assert tri10.value(7, 8) == 45877917085
    assert tri10.value(10, 2) == 11509659737732


def test_support_bound(tri10):
    for n in range(1, 11):
        for g2 in range(n + 4):
            if g2 > n + 1:
                assert tri10.value(n, g2) == 0, (n, g2)
            else:
                assert tri10.value(n, g2) > 0, (n, g2)


def test_prefactor_denominator_positive():
    # 2 D(n, g) > 0 exactly when D(n, g) > 0, over the visited range
    for n in range(1, 60):
        for g2 in range(n + 2):
            assert double_denominator(n, g2) > 0


def test_single_step_and_missing(tri10):
    # a fill recomputes row 7 from the rows below it
    tab = TriTable()
    tab.entries.update((cell, v) for cell, v in tri10.entries.items() if cell[0] < 7)
    tab.fill(7)
    assert [tab.value(7, g2) for g2 in range(9)] == [tri10.value(7, g2) for g2 in range(9)]
    with pytest.raises(MissingEntryError):
        TriTable().value(5, 0)


def test_values_are_ints():
    tab = TriTable().fill(21)
    assert all(type(v) is int for v in tab.entries.values())


def test_rejects_non_divisible_sum():
    tab = TriTable()
    tab.entries[(1, 0)] += 1
    with pytest.raises(IntegralityError, match=r"t\[3,0\]"):
        tab.fill(3)


def test_xi_series(tri10):
    xi = xi_series(tri10, 12)
    c6 = xi.coeff(6)
    assert c6.coeff((3, 2, 0)) == Fraction(4, 12)
    assert c6.coeff((2, 2, 0)) == Fraction(9, 12)
    assert c6.coeff((1, 2, 0)) == Fraction(7, 12)
    assert xi.coeff(7).is_zero()
    c12 = xi.coeff(12)
    assert c12.coeff((4, 4, 0)) == Fraction(32, 24)
