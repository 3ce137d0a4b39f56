"""Rooted triangulations (all faces of degree 3) on all surfaces.

t[n, g2] counts rooted triangulations with 2n faces (equivalently 3n
edges) and genus g2/2.  Pure integer data; the recurrence prefactor
denominator D(n, g) = 2n^2 + (3-2g)n + (1-g)(1-2g) depends on the genus
and is checked nonzero at every visited cell rather than assumed.

The step runs in plain ints: scaled by 8, every bracket coefficient is
an integer, and the cell is one exact division by 4 D(n, g); a remainder
or a negative result raises IntegralityError.  A fill computes row n
for every genus at once: the quadratic sum, the shift weights and the
brackets of lower rows are lists local to the call, the shift sum over
n1 < n is one genus convolution of them, and the boundary corrections
of rows n2 = 1, 2 are part of those rows' brackets.  The n1 = n term
reads lower genera of row n itself, so it is added by a sweep up the
row.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityError
from .poly import Poly
from .table import Table, convolve, convolve_square, row_series, shift_weight
from .tseries import TSeries


def double_denominator(n: int, g2: int) -> int:
    """2 D(n, g) with g = g2/2, an int."""
    return 4 * n * n + 2 * (3 - g2) * n + (2 - g2) * (1 - g2)


def prefactor_denominator(n: int, g2: int) -> Fraction:
    """D(n, g) with g = g2/2, exact."""
    return Fraction(double_denominator(n, g2), 2)


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
        """Rows 3..n_max; each cell is one exact division of its scaled sum
        by 2 Dnum, Dnum = 2 D(n, g) (`double_denominator`)."""
        top = n_max + 1 if g2_max is None else g2_max
        t = self.value
        # by row m: (3m+2) t[m], the shift weights of t[m] and 8 x its bracket
        scaled, weight, bracket = [[]], [[]], [[]]
        for n in range(1, n_max + 1):
            genera = range(min(n + 1, top) + 1)
            # q[g2]: sum of (3n3-1)(3n4-1) t[n3-1] t[n4-1] over n3+n4 = n, g3+g4 = g2
            q = convolve_square(scaled, n - 2, len(genera))
            # 8 x the bracket of row n without its -(n+1)/8 t[n] term and boundary
            core = [8 * ((3 * n - 1) * t(n - 1, g) + q[g] + 2 * (3 * n - 4) * (
                (3 * n - 2) * n * t(n - 2, g - 2) + 2 * (t(n - 2, g - 1) + t(n - 2, g))))
                for g in genera]
            if n >= 3:
                # the first part, 8n (6(3n-1) t[n-1] + ... + 6q), is 6n core
                shift = convolve([0] * len(genera),
                                 ((weight[n1], bracket[n - n1]) for n1 in range(1, n)))
                row = [0] * len(genera)
                for g2 in genera:
                    Dnum = double_denominator(n, g2)
                    if Dnum == 0:
                        raise ArithmeticError(
                            f"prefactor denominator vanishes at (n={n}, g2={g2})")
                    # n1 = n: the bracket is +-1/8 at g2_1 = g2, g2 - 1, and the
                    # unknown cell, row[g2] = 0 here, drops out of its weight
                    total8 = (6 * n * core[g2] - shift[g2]
                              - shift_weight(n, g2, row) + shift_weight(n, g2 - 1, row))
                    quot, rem = divmod(total8, 2 * Dnum)
                    if rem:
                        raise IntegralityError(
                            f"t[{n},{g2}]: {total8} not divisible by {2 * Dnum}")
                    if quot < 0:
                        raise IntegralityError(f"t[{n},{g2}] = {quot} is negative")
                    row[g2] = self.entries[n, g2] = quot
            row = [t(n, g) for g in genera]
            scaled.append([(3 * n + 2) * v for v in row])
            weight.append([shift_weight(n, g, row) for g in genera])
            full = [b - (n + 1) * v for b, v in zip(core, row)]
            for g, c in zip(genera, _BOUNDARY8.get(n, ())):
                full[g] += c
            bracket.append(full)
        return self


# 8 x the boundary corrections of the bracket of rows n2 = 1, 2, by genus
_BOUNDARY8 = {1: (16, 16, 8), 2: (32, 64, 288, 256)}


def xi_series(table: TriTable, order: int) -> TSeries:
    """Triangulation generating series: sum t[n,g2]/(12n) t^{6n} z^{2n} u^{n+2-g2}."""
    return row_series(order, 6, lambda n: Poly.from_terms({
        (n + 2 - g2, 2 * n, 0): Fraction(table.value(n, g2), 12 * n)
        for g2 in range(n + 2)
        if table.value(n, g2)
    }))
