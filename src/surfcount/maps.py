"""Rooted maps on all surfaces, counted by edges, vertices and faces.

The central object is the table H[n, g2] of generating polynomials in
(u, z): u marks vertices, z marks faces, n is the edge count and g2 the
doubled genus.  Two independent recurrence engines fill the same table:

* engine "kz": a recurrence whose left-hand side carries the operator
  Id + 3 u^2 d^2/du^2 / (n(n+1)), inverted diagonally on u-degrees
  (u^i is an eigenvector, so coefficient (i, j) divides by
  n(n+1) + 3i(i-1), always positive);
* engine "cc": a recurrence with the scalar prefactor 2/((n+1)(n-2))
  and the boundary convention H[0,0] = uz.

The engines share no formulas, so exact polynomial agreement of their
outputs is a strong end-to-end check.  A third path, MapsCounts,
computes the univariate counts h[n, g2] = H[n, g2](1, 1) directly in
plain ints: the "cc" recurrence at u = z = 1, scaled by 4 so that every
coefficient is an integer, run by `table.Table._fill_convolution`.

The one-face counts (maps whose complement is a single disk) obey a
separate linear recursion, which OneFaceTable runs a row at a time
(`table.Table._fill_linear`).

MapsTable fills a row, every genus of it, at a time (`table.PolyTable`).
Genus is degree: H[n, g2] is homogeneous of degree n + 2 - g2, so a row
of every genus is the sum of its cells.  The building blocks are Memo
rows, keyed (m, c) for a fill cut at genus c:

* shift_weight[n1, c], the charge-shift weights of row n1 as one
  polynomial, so the shift sum multiplies it once by each bracket:
  `Poly.charge_shift` of the row, u and z shifting together for "cc"
  and u alone for "kz";
* core[m, c], the engine's inner bracket without its own term
  -(m+1)/d H[m, g2_2], d = 2 for "kz" and 4 for "cc": one `Poly.dot`
  over the products by linear factors and the quadratic sum
  (`table.square_sum`), plus the genus moves, which are scalings; the
  boundary terms of "kz" are data, _BOUNDARY_KZ, by row and genus;
* bracket[m, c], core plus that term, and row[m, c], the cells.

Each row step is 2n times core[n], minus the shift sum of weights times
brackets, one `Poly.dot` over n1.  In "kz" the piece n1 = n reads the
cells of row n below the one it is for, so that engine finishes the row
by a sweep up the genera, which adds each cell's weights as it is
written and leaves the row's shift_weight behind.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, U, Z
from .table import PolyTable, Table, cut, row_series, square_sum
from .tseries import TSeries

_UZ = U * Z
_4U_Z = 4 * U + Z
_U_Z = U + Z

# the "kz" bracket's boundary terms of row n2, by g2_2
_BOUNDARY_KZ = {
    0: (Fraction(3, 2) * (U * U), Fraction(-3, 2) * U),
    1: (_UZ * _4U_Z, -2 * _UZ),
    2: (3 * _UZ * _UZ, Poly.zero(), 6 * _UZ),
}


class MapsTable(PolyTable):
    """Bivariate table of H[n, g2], filled by one recurrence engine."""

    NAME = "H"
    # nonzero seeds shared by both engines
    SEEDS = {
        (1, 0): _UZ * _U_Z,
        (1, 1): _UZ,
        (2, 0): _UZ * (2 * U * U + 5 * _UZ + 2 * Z * Z),
        (2, 1): 5 * _UZ * _U_Z,
        (2, 2): 5 * _UZ,
    }

    def __init__(self, engine: str = "cc"):
        if engine not in ("kz", "cc"):
            raise ValueError(f"unknown engine {engine!r}")
        kz = engine == "kz"
        super().__init__(MapsTable._core_kz if kz else MapsTable._core_cc, 2 if kz else 4,
                         None if kz else 1)
        self.engine = engine

    def poly(self, n: int, g2: int) -> Poly:
        """H[n, g2] with this engine's boundary conventions."""
        if n < 0 or g2 < 0 or n < g2:
            return Poly.zero()
        if n == 0:
            return _UZ if (self.engine == "cc" and g2 == 0) else Poly.zero()
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "MapsTable":
        return self._fill(_row_kz if self.engine == "kz" else _row_cc, n_max, g2_max)

    # building blocks for the memos, rows keyed (m, c), all read off this
    # table's own entries

    def _core_kz(self, m: int, c: int) -> Poly:
        """Engine-"kz" inner bracket with its boundary terms, without its
        -(m+1)/2 H[m, g2_2] term; H[m, g2_2] is row m at genus g2_2."""
        H = cut(self.row, c)
        return Poly.sum([
            H(m - 1).scale(-2 * (2 * m - 1)),
            H(m - 2).scale(2 * (2 * m - 3) * (2 * m - 1) * (m - 1)),
            *_BOUNDARY_KZ.get(m, ()),
            Poly.dot([(2 * m - 1, _4U_Z, H(m - 1)), (6 * (2 * m - 3), _UZ, H(m - 2))]
                     + square_sum(H, m, lambda n3, n4: 3 * (2 * n3 - 1) * (2 * n4 - 1))),
        ])

    def _core_cc(self, m: int, c: int) -> Poly:
        """Engine-"cc" inner bracket without its -(m+1)/4 H[m, g2_2] term."""
        H = cut(self.row, c)
        return Poly.sum([
            H(m - 2).scale(Fraction((2 * m - 1) * (2 * m - 2) * (2 * m - 3), 2)),
            H(m - 1).scale(Fraction(2 * m - 1, 2)),
            Poly.dot([(Fraction(2 * m - 1, 2), _U_Z, H(m - 1))] + square_sum(
                H, m, lambda n3, n4: Fraction(3 * (2 * n3 - 1) * (2 * n4 - 1), 2))),
        ])


def _row_kz(n: int, top: int, tab: MapsTable):
    """Engine "kz" step for row n, cut at top, by ascending genus: 2n
    times core, the bracket without H[n], minus the shift sum, then the
    diagonal operator n(n+1) + 3 i(i-1) inverted on each u^i z^j
    coefficient.  The shift sum's self piece n1 = n reads the cells of
    row n below g2, which the caller has written before the next cell
    is read; the unknown cell's own term, g2_0 = g2_1 = g2, is left out.
    Each cell's weights are added once, when the next step reads it, and
    once the last cell is written they are the row's shift_weight."""
    weight, bracket = cut(tab.shift_weight, top), cut(tab.bracket, top)
    shift = Poly.dot((1, weight(n1), bracket(n - n1)) for n1 in range(1, n))
    rhs = (tab.core[n, top].scale(2 * n) - shift).parts_by_degree(n + 2, top)
    # the operator's eigenvalue on u^i; the cells of row n have degree n + 2 at most
    divisors = [n * (n + 1) + 3 * i * (i - 1) for i in range(n + 3)]
    # own_weight[g2_1]: the weights at g2_1 of the cells of row n written so far
    own_weight = [Poly.zero()] * (top + 1)

    def written(g2_0):
        weights = tab.poly(n, g2_0).charge_shift(None, n - top)
        for g2_1, part in enumerate(weights.parts_by_degree(n, top)):
            own_weight[g2_1] += part

    for g2 in range(top + 1):
        if g2:
            written(g2 - 1)
        # row 0's bracket is its boundary terms, at genus 0 and 1
        cell = rhs[g2] - Poly.dot((1, own_weight[g2_1], _BOUNDARY_KZ[0][g2 - g2_1])
                                  for g2_1 in (g2, g2 - 1) if g2_1 >= 0)
        yield cell.div_u(divisors)
    written(top)
    tab.shift_weight[n, top] = Poly.sum(own_weight)


def _row_cc(n: int, top: int, tab: MapsTable) -> list:
    """Engine "cc" step for row n, cut at top, prefactor 2/((n+1)(n-2)):
    2n times core, the bracket without H[n], minus the shift sum."""
    own = tab.core[n, top]
    weight, bracket = cut(tab.shift_weight, top), cut(tab.bracket, top)
    # at n1 = 0, where only g2_1 = 0 has a weight, the bracket is core
    shift = Poly.dot((1, weight(n1), bracket(n - n1) if n1 else own) for n1 in range(n))
    row = (own.scale(2 * n) - shift).scale(Fraction(2, (n + 1) * (n - 2)))
    return row.parts_by_degree(n + 2, top)


class MapsCounts(Table):
    """Integer-only fast path for h[n, g2] = H[n, g2](1, 1).

    Engine "cc" at u = z = 1, where the bivariate shift kernel collapses
    to a single binomial coefficient, scaled by 4 so that every bracket
    coefficient is an integer: a genus-convolution recurrence
    (`Table._fill_convolution`) whose cell is one checked division by
    2(n+1)(n-2).  Row 0 is h[0, 0] = 1: its shift weight, 4 at genus 0,
    gives the n1 = 0 piece, and its bracket is zero.
    """

    NAME = "h"
    SEEDS = {(1, 0): 2, (1, 1): 1, (2, 0): 9, (2, 1): 10, (2, 2): 5}

    def value(self, n: int, g2: int) -> int:
        if n < 0 or g2 < 0 or n < g2:
            return 0
        if n == 0:
            return 1 if g2 == 0 else 0
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "MapsCounts":
        h = self.value
        # core: 4 x the bracket of row n without its -(n+1)/4 h[n] term, q
        # the sum of (2n3-1)(2n4-1) h[n3-1] h[n4-1] over g3 + g4 = g2; the
        # step, 4 x (n(2n-1)(...) + ... + 3n q), is 2n core
        return self._fill_convolution(
            n_max, g2_max, 0, lambda m: 2 * m + 1,
            lambda n, g, q: 2 * (2 * n - 1) * ((2 * n - 2) * (2 * n - 3) * h(n - 2, g - 2)
                                               + 2 * h(n - 1, g) + h(n - 1, g - 1)) + 6 * q,
            lambda n: 2 * n, lambda n, g2: 2 * (n + 1) * (n - 2), {})


class OneFaceTable(Table):
    """u[n, g2]: rooted one-face maps with n edges and genus g2/2.

    An 8-term linear recursion fills n >= 4.  Rows n <= 3 are seeded
    (the planar row is the Catalan numbers), as is the empty-map value
    u[0, 0] = 1 consumed by the depth-4 history term.
    """

    NAME = "oneface"
    SEEDS = {
        (0, 0): 1,
        (1, 0): 1, (1, 1): 1,
        (2, 0): 2, (2, 1): 5, (2, 2): 5,
        (3, 0): 5, (3, 1): 22, (3, 2): 52, (3, 3): 41,
    }

    def value(self, n: int, g2: int) -> int:
        if g2 < 0 or g2 > n:
            return 0
        return self.entries[n, g2]

    def fill(self, n_max: int) -> "OneFaceTable":
        # rows as lists by g2, with at least four zeros past the last
        # cell, which a g2 down to -4 reads (from the end)
        width = n_max + 5
        return self._fill_linear(n_max, lambda n: [(n, g2) for g2 in range(n + 1)], ledoux,
                                 lambda n, row: row + [0] * (width - n - 1))


def ledoux(n: int, u1: list, u2: list, u3: list, u4: list) -> list:
    """Row n of the linear one-face recursion times n + 1, by g2 = 0..n,
    from rows n-1..n-4: ur[g2] is u[n - r, g2], and a g2 from -4 to -1
    reads the row's zero padding.

    This is Ledoux's recursion (2009).  For n >= 5 every coefficient is
    the one derived from the one-face ODE (`identities._ONEFACE_ODE`),
    which tests/test_oneface_recurrence.py checks; at n = 4 the seed
    u[0, 0] = 1 stands for the ODE's inhomogeneous part.
    """
    # kr_s multiplies u[n - r, g2 - s]
    f = (2 * n - 3) * (2 * n - 4) * (2 * n - 5)
    k1_0, k1_1 = 8 * n - 2, -(4 * n - 1)
    k2_0, k2_1, k2_2 = -8 * (2 * n - 3), 8 * (2 * n - 3), n * (2 * n - 3) * (10 * n - 9)
    k3_2, k3_3 = -10 * f, 5 * f
    k4_4 = -2 * f * (2 * n - 6) * (2 * n - 7)
    return [k1_0 * u1[g2] + k1_1 * u1[g2 - 1]
            + k2_0 * u2[g2] + k2_1 * u2[g2 - 1] + k2_2 * u2[g2 - 2]
            + k3_2 * u3[g2 - 2] + k3_3 * u3[g2 - 3] + k4_4 * u4[g2 - 4]
            for g2 in range(n + 1)]


def theta_series(table: MapsTable, order: int) -> TSeries:
    """The map generating series in t up to the given order (t^2 marks an edge,
    each coefficient is row n, sum_g H[n, g2], over 4n)."""
    return row_series(order, 2, lambda n: table.row[n, n].scale(Fraction(1, 4 * n)))


def oneface_series(table: OneFaceTable, order: int) -> TSeries:
    """Generating series of one-face maps: sum u[n,g2]/(4n) t^{2n} u^{n+1-g2}."""
    return row_series(order, 2, lambda n: Poly.from_terms(
        {(n + 1 - g2, 0, 0): table.value(n, g2) for g2 in range(n + 1)}, 4 * n))
