"""Rooted triangulations (all faces of degree 3) on all surfaces.

t[n, g2] counts rooted triangulations with 2n faces (equivalently 3n
edges) and genus g2/2.  Pure integer data; the recurrence prefactor
denominator D(n, g) = 2n^2 + (3-2g)n + (1-g)(1-2g) depends on the genus
and is checked nonzero at every visited cell rather than assumed.

The step runs in plain ints: scaled by 8, every bracket coefficient is
an integer, and the cell is one exact division by 4 D(n, g); a remainder
or a negative result raises IntegralityError.  The table's memos hold
the bracket core on (n2, g2_2) and the shift weight on (n1, g2_1); the
boundary corrections for n1 in {n, n-1, n-2} are added on top.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityError
from .poly import Poly
from .table import Memo, Table, _genus_splits, _grid, _shift_weight, _sub_genus, row_series
from .tseries import TSeries


def prefactor_denominator(n: int, g2: int) -> Fraction:
    """D(n, g) with g = g2/2, exact."""
    return Fraction(4 * n * n + 2 * (3 - g2) * n + (2 - g2) * (1 - g2), 2)


class TriTable(Table):
    NAME = "t"
    SEEDS = {
        (1, 0): 4, (1, 1): 9, (1, 2): 7,
        (2, 0): 32, (2, 1): 118, (2, 2): 202, (2, 3): 128,
    }

    def __init__(self):
        super().__init__()
        self.q = Memo(TriTable._q, self)
        self.bracket8 = Memo(TriTable._bracket8, self)
        self.weight = Memo(_shift_weight, self)

    def value(self, n: int, g2: int) -> int:
        if n <= 0 or g2 < 0 or n < g2 - 1:
            return 0
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "TriTable":
        return self._sweep(_grid(3, n_max, g2_max, excess=1),
                           lambda n, g2: tri_rec(n, g2, self))

    def _q(self, m: int, g2: int) -> int:
        """Sum of (3 n3 - 1)(3 n4 - 1) t[n3-1] t[n4-1] over splits of (m, g2)."""
        t = self.value
        return sum(
            (3 * n3 - 1) * (3 * (m - n3) - 1) * t(n3 - 1, ga) * t(m - n3 - 1, gb)
            for ga, gb in _genus_splits(g2)
            for n3 in range(max(2, ga), m - max(1, gb - 1))  # all other terms vanish
        )

    def _bracket8(self, n2: int, g2_2: int) -> int:
        """8 x the inner bracket of (n2, g2_2), without boundary corrections."""
        t = self.value
        return 8 * (
            (3 * n2 - 1) * t(n2 - 1, g2_2)
            + 2 * (3 * n2 - 4) * (
                (3 * n2 - 2) * n2 * t(n2 - 2, g2_2 - 2)
                + 2 * (t(n2 - 2, g2_2 - 1) + t(n2 - 2, g2_2))
            )
            + self.q[n2, g2_2]
        ) - (n2 + 1) * t(n2, g2_2)


# 8 x the boundary corrections of the bracket, keyed by (n - n1, g2 - g2_1)
_BOUNDARY8 = {
    (1, 0): 16, (1, 1): 16, (1, 2): 8,
    (2, 0): 32, (2, 1): 64, (2, 2): 288, (2, 3): 256,
}


def tri_rec(n: int, g2: int, table: TriTable) -> int:
    """One recurrence step for t[n, g2] (n > 2, dependencies filled).

    Scaled by 8 so that every bracket coefficient is an integer; the cell
    is one exact division of the scaled sum by 2 Dnum, Dnum = 2 D(n, g).
    """
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    Dnum = int(2 * prefactor_denominator(n, g2))
    if Dnum == 0:
        raise ArithmeticError(f"prefactor denominator vanishes at (n={n}, g2={g2})")
    t = table.value
    total8 = 8 * n * (
        6 * (3 * n - 1) * t(n - 1, g2)
        + 12 * (3 * n - 4) * (
            (3 * n - 2) * n * t(n - 2, g2 - 2)
            + 2 * (t(n - 2, g2 - 1) + t(n - 2, g2))
        )
        + 6 * table.q[n, g2]
    )
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(1, n):
            w = table.weight[n1, g2_1]
            if w:
                br = table.bracket8[n - n1, g2_2] + _BOUNDARY8.get((n - n1, g2 - g2_1), 0)
                total8 -= w * br
    # n1 = n: the bracket reduces to +-1/8 and the self term g2_0 = g2 drops out
    for g2_1, sign in ((g2, 1), (g2 - 1, -1)):
        if g2_1 >= 0:
            others = [g2_0 for g2_0 in _sub_genus(g2_1) if g2_0 != g2]
            total8 -= sign * _shift_weight(table, n, g2_1, others)
    quot, rem = divmod(total8, 2 * Dnum)
    if rem:
        raise IntegralityError(f"t[{n},{g2}]: {total8} not divisible by {2 * Dnum}")
    if quot < 0:
        raise IntegralityError(f"t[{n},{g2}] = {quot} is negative")
    return quot


def xi_series(table: TriTable, order: int) -> TSeries:
    """Triangulation generating series: sum t[n,g2]/(12n) t^{6n} z^{2n} u^{n+2-g2}."""
    return row_series(order, 6, lambda n: Poly.from_terms({
        (n + 2 - g2, 2 * n, 0): Fraction(table.value(n, g2), 12 * n)
        for g2 in range(n + 2)
        if table.value(n, g2)
    }))
