"""Rooted triangulations (all faces of degree 3) on all surfaces.

t[n, g2] counts rooted triangulations with 2n faces (equivalently 3n
edges) and genus g2/2.  Pure integer data; the recurrence prefactor
denominator D(n, g) = 2n^2 + (3-2g)n + (1-g)(1-2g) depends on the genus.
It is positive for every n >= 1: as a polynomial in g2, 2 D has the
discriminant -12n^2 - 12n + 1 < 0.

The step runs in plain ints, scaled by 8 so that every bracket
coefficient is an integer: a genus-convolution recurrence
(`table.Table._fill_convolution`) whose cell is one checked division by
4 D(n, g).  The boundary corrections of rows n2 = 0, 1, 2 are part of
those rows' brackets; row 0 is all zeros, and its bracket makes the
n1 = n piece of the shift sum.
"""

from __future__ import annotations

from .poly import Poly
from .table import Table, row_series
from .tseries import TSeries


def double_denominator(n: int, g2: int) -> int:
    """2 D(n, g) with g = g2/2, an int."""
    return 4 * n * n + 2 * (3 - g2) * n + (2 - g2) * (1 - g2)


class TriTable(Table):
    NAME = "t"
    SEEDS = {
        (1, 0): 4, (1, 1): 9, (1, 2): 7,
        (2, 0): 32, (2, 1): 118, (2, 2): 202, (2, 3): 128,
    }

    def value(self, n: int, g2: int) -> int:
        if n <= 0 or g2 < 0 or n < g2 - 1:
            return 0
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "TriTable":
        t = self.value
        # core: 8 x the bracket of row n without its -(n+1)/8 t[n] term and
        # boundary, q the sum of (3n3-1)(3n4-1) t[n3-1] t[n4-1] over
        # g3 + g4 = g2; the step, 8n (6(3n-1) t[n-1] + ... + 6q), is 6n core
        return self._fill_convolution(
            n_max, g2_max, 1, lambda m: 3 * m + 2,
            lambda n, g, q: 8 * ((3 * n - 1) * t(n - 1, g) + q + 2 * (3 * n - 4) * (
                (3 * n - 2) * n * t(n - 2, g - 2) + 2 * (t(n - 2, g - 1) + t(n - 2, g)))),
            lambda n: 6 * n, lambda n, g2: 2 * double_denominator(n, g2), _BOUNDARY8)


# 8 x the boundary terms of the bracket of rows n2 = 0, 1, 2, by genus: row
# 0's is +-1/8 at g2_2 = 0, 1
_BOUNDARY8 = {0: (1, -1), 1: (16, 16, 8), 2: (32, 64, 288, 256)}


def xi_series(table: TriTable, order: int) -> TSeries:
    """Triangulation generating series: sum t[n,g2]/(12n) t^{6n} z^{2n} u^{n+2-g2}."""
    return row_series(order, 6, lambda n: Poly.from_terms(
        {(n + 2 - g2, 2 * n, 0): table.value(n, g2) for g2 in range(n + 2)}, 12 * n))
