"""Rooted bipartite maps, counted by edges, vertex colours and faces.

K[n, g2] is a polynomial in (u, v, z): u marks black vertices (the root
vertex is black by convention), v white vertices, z faces.  One
recurrence engine fills the table; every right-hand side entry has
strictly smaller edge count, so the fill is a plain sweep in n.

The one-face numbers b[n, i, j] (i black, j white vertices) satisfy
their own linear recursion with history depth 4, filled in
BipOneFaceTable.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import IntegralityError
from .poly import Poly, U, V, Z, _pack, _unpack
from .table import (
    Memo, PolyTable, Table, _genus_splits, _grid, _square_splits, _sub_genus, row_series,
)
from .tseries import TSeries

_UVZ = U * V * Z
_UV = U * V
_SUM3 = U + V + Z
_DIFF3 = U + V - Z

# stated zero seeds, kept explicit: no bipartite map exists there
_INITIAL_ZERO = {(1, 1), (2, 2)}


_PSI = U * U + V * V + Z * Z - 14 * _UV - 2 * U * Z - 2 * V * Z


def _psi(n: int) -> Poly:
    return (n - 2) * _PSI - 12 * _UV


class BipTable(PolyTable):
    """Trivariate table of K[n, g2]."""

    NAME = "K"
    SEEDS = {
        (1, 0): _UVZ,
        (2, 0): _UVZ * _SUM3,
        (2, 1): _UVZ,
    }

    def __init__(self):
        super().__init__()
        self.q = Memo(BipTable._q, self)
        self.shift_weight = Memo(BipTable._weight, self)
        self.bracket = Memo(BipTable._bracket, self)

    def poly(self, n: int, g2: int) -> Poly:
        if n <= 0 or g2 < 0 or n < g2:
            return Poly.zero()
        if (n, g2) in _INITIAL_ZERO:
            return Poly.zero()
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "BipTable":
        return self._sweep(_grid(3, n_max, g2_max), self._step)

    def _step(self, n: int, g2: int) -> Poly:
        poly = bip_rec(n, g2, self)
        deg = n + 2 - g2
        if not (poly.is_integral() and poly.is_homogeneous(deg)):
            raise IntegralityError(f"K[{n},{g2}] failed checks: {poly}")
        return poly

    def _q(self, m: int, g2: int) -> Poly:
        """Sum of (6 n3 n4 - 2(n3+n4) + 1) K[n3-1] K[n4-1] over splits of (m, g2),
        one product per mirrored pair of splits."""
        K = self.poly
        return Poly.dot((k * (6 * n3 * (m - n3) - 2 * m + 1), K(n3 - 1, ga), K(m - n3 - 1, gb))
                        for n3, ga, gb, k in _square_splits(m, g2))

    def _weight(self, n1: int, g2_1: int) -> Poly:
        """Expansion kernel of the simultaneous (u, v) charge shift:
        sum over monomials u^p v^q z^k of K[n1, g2_0], g2_0 <= g2_1, of
        2^(2 + g2_1 - g2_0) C(p,i) C(q, m-k-i) u^i v^(m-k-i) z^k with
        m = n1 - g2_1 (z-exponents pass through unshifted)."""
        m = n1 - g2_1
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        if m >= 0:
            polys = [(g2_0, self.poly(n1, g2_0)) for g2_0 in _sub_genus(g2_1)]
            den = lcm(*(K.den for _, K in polys))
            for g2_0, K in polys:
                factor = 2 ** (2 + g2_1 - g2_0) * (den // K.den)
                for e, c in K.terms.items():
                    p, k, q = _unpack(e)
                    top = m - k
                    for i in range(max(0, top - q), min(p, top) + 1):
                        kk = _pack(i, k, top - i)
                        acc[kk] = get(kk, 0) + factor * comb(p, i) * comb(q, top - i) * c
        return Poly(acc, den)

    def _bracket(self, n2: int, g2_2: int) -> Poly:
        K = self.poly
        parts = [
            (-(n2 + 1)) * K(n2, g2_2),
            (2 * n2 - 1) * (_SUM3 * K(n2 - 1, g2_2) - K(n2 - 1, g2_2 - 1)),
            ((2 * n2 - 1) * (2 * n2 - 3) * n2) * K(n2 - 2, g2_2 - 2),
            (-6 * (n2 - 1)) * (_DIFF3 * K(n2 - 2, g2_2 - 1)),
            -_psi(n2) * K(n2 - 2, g2_2),
            2 * self.q[n2, g2_2],
        ]
        if n2 == 1 and g2_2 == 0:
            parts.append(2 * _UVZ)
        if n2 == 2:
            if g2_2 == 0:
                parts.append(6 * _UV * _UV)
            elif g2_2 == 1:
                parts.append(-6 * _UV * _DIFF3)
            elif g2_2 == 2:
                parts.append(6 * _UV)
        return Poly.sum(parts)


def bip_rec(n: int, g2: int, table: BipTable) -> Poly:
    """One recurrence step for K[n, g2] (n > 2, dependencies filled)."""
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    K = table.poly
    first = Poly.sum([
        (2 * n - 1) * (_SUM3 * K(n - 1, g2) - K(n - 1, g2 - 1)),
        -_psi(n) * K(n - 2, g2),
        ((2 * n - 1) * (2 * n - 3) * n) * K(n - 2, g2 - 2),
        (-6 * (n - 1)) * (_DIFF3 * K(n - 2, g2 - 1)),
        2 * table.q[n, g2],
    ]).scale(Fraction(1, n + 1))
    double = []
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(1, n):
            w = table.shift_weight[n1, g2_1]
            if not w.is_zero():
                double.append((1, w, table.bracket[n - n1, g2_2]))
    return first - Poly.dot(double).scale(Fraction(1, (n - 2) * (n + 1)))


class BipOneFaceTable(Table):
    """b[n, i, j]: rooted one-face bipartite maps, i black and j white vertices.

    Rows n <= 3 are seeded; the depth-4 linear recursion fills n >= 4.
    Three signs here differ from circulating forms of this recursion
    (two of those would break black/white symmetry, which these counts
    provably have); every sign used is pinned against the one-face
    slice of the full trivariate table for every n <= 10, and by the
    recursion's derivation from the one-face ODE (see `bip_oneface`).
    """

    NAME = "bip-oneface"
    SEEDS = {
        (1, 1, 1): 1,
        (2, 2, 1): 1, (2, 1, 2): 1, (2, 1, 1): 1,
        (3, 3, 1): 1, (3, 1, 3): 1,
        (3, 2, 2): 3, (3, 2, 1): 3, (3, 1, 2): 3,
        (3, 1, 1): 4,
    }

    def value(self, n: int, i: int, j: int) -> int:
        if i <= 0 or j <= 0 or i + j > n + 1:
            return 0
        if n <= 3:
            return self.entries.get((n, i, j), 0)
        return self.entries[n, i, j]

    @staticmethod
    def row_cells(n: int):
        """The cells (i, j) of row n that can be nonzero: i, j >= 1, i + j <= n + 1."""
        return ((i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i))

    def fill(self, n_max: int) -> "BipOneFaceTable":
        cells = ((n, i, j) for n in range(4, n_max + 1) for i, j in self.row_cells(n))
        return self._sweep(cells, lambda n, i, j: bip_oneface(n, i, j, self))


def bip_oneface(n: int, i: int, j: int, table: BipOneFaceTable) -> int:
    """One step of the bipartite one-face recursion; division by n+1 exact.

    Every coefficient, signs included, is the one derived from the
    bipartite one-face ODE (`identities._ONEFACE_ODE`), which
    tests/test_oneface_recurrence.py checks for n = 4..20.
    """
    b = table.value
    total = (
        (4 * n - 1) * (b(n - 1, i - 1, j) + b(n - 1, i, j - 1) - b(n - 1, i, j))
        + (5 * n**3 - 16 * n**2 + 13 * n - 1) * b(n - 2, i, j)
        + (2 * n - 3) * (
            4 * b(n - 2, i - 1, j) + 4 * b(n - 2, i, j - 1)
            - 3 * b(n - 2, i - 2, j) - 3 * b(n - 2, i, j - 2)
            - 2 * b(n - 2, i - 1, j - 1)
        )
        + (10 * n**3 - 68 * n**2 + 150 * n - 107) * (
            b(n - 3, i, j) - b(n - 3, i - 1, j) - b(n - 3, i, j - 1)
        )
        + (4 * n - 11) * (
            b(n - 3, i - 3, j) + b(n - 3, i, j - 3)
            - b(n - 3, i - 2, j - 1) - b(n - 3, i - 1, j - 2)
            - b(n - 3, i - 2, j) - b(n - 3, i, j - 2)
            + 2 * b(n - 3, i - 1, j - 1)
        )
        + (4 - n) * (
            (2 * n - 7) ** 2 * (n - 2) ** 2 * b(n - 4, i, j)
            - (5 * n**2 - 32 * n + 53) * (
                b(n - 4, i - 2, j) + b(n - 4, i, j - 2) - 2 * b(n - 4, i - 1, j - 1)
            )
            + b(n - 4, i - 4, j) + b(n - 4, i, j - 4)
            - 4 * b(n - 4, i - 3, j - 1) - 4 * b(n - 4, i - 1, j - 3)
            + 6 * b(n - 4, i - 2, j - 2)
        )
    )
    quot, rem = divmod(total, n + 1)
    if rem:
        raise IntegralityError(f"bip-oneface[{n},{i},{j}]: {total} not divisible by {n + 1}")
    return quot


def eta_series(table: BipTable, order: int) -> TSeries:
    """Bipartite generating series: sum over n of (sum_g K[n, g2]) / (2n) t^n."""
    return row_series(order, 1, lambda n: Poly.sum(
        table.poly(n, g2) for g2 in range(n + 1)).scale(Fraction(1, 2 * n)))


def bip_oneface_series(table: BipOneFaceTable, order: int) -> TSeries:
    """One-face bipartite series: sum b[n,i,j]/(2n) t^n u^i v^j."""
    return row_series(order, 1, lambda n: Poly({
        _pack(i, 0, j): table.value(n, i, j)
        for i, j in table.row_cells(n)
        if table.value(n, i, j)
    }, 2 * n))
