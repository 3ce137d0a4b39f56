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
from math import comb

from .errors import IntegralityError, MissingEntryError
from .maps import _genus_splits, _sub_genus
from .poly import Poly, U, V, Z
from .tseries import TSeries

_UVZ = U * V * Z
_UV = U * V
_SUM3 = U + V + Z
_DIFF3 = U + V - Z

_INITIAL = {
    (1, 0): _UVZ,
    (2, 0): _UVZ * _SUM3,
    (2, 1): _UVZ,
}
# stated zero seeds, kept explicit: no bipartite map exists there
_INITIAL_ZERO = {(1, 1), (2, 2)}


def _psi(n: int) -> Poly:
    return (n - 2) * (
        U * U + V * V + Z * Z - 14 * _UV - 2 * U * Z - 2 * V * Z
    ) - 12 * _UV


class BipTable:
    """Trivariate table of K[n, g2]."""

    def __init__(self):
        self.entries: dict[tuple[int, int], Poly] = dict(_INITIAL)
        self._q: dict[tuple[int, int], Poly] = {}
        self._w: dict[tuple[int, int], Poly] = {}
        self._br: dict[tuple[int, int], Poly] = {}

    def poly(self, n: int, g2: int) -> Poly:
        if n <= 0 or g2 < 0 or n < g2:
            return Poly.zero()
        if (n, g2) in _INITIAL_ZERO:
            return Poly.zero()
        try:
            return self.entries[(n, g2)]
        except KeyError:
            raise MissingEntryError(f"K[n={n}, g2={g2}] not filled yet") from None

    def count(self, n: int, g2: int) -> int:
        val = self.poly(n, g2).evaluate()
        if val.denominator != 1:
            raise IntegralityError(f"K[{n},{g2}](1,1,1) = {val} not an integer")
        return val.numerator

    def fill(self, n_max: int, g2_max: int | None = None) -> "BipTable":
        for n in range(3, n_max + 1):
            top = n if g2_max is None else min(n, g2_max)
            for g2 in range(top + 1):
                if (n, g2) in self.entries:
                    continue
                poly = bip_rec(n, g2, self)
                deg = n + 2 - g2
                if not (poly.is_integral() and poly.is_homogeneous(deg)):
                    raise IntegralityError(f"K[{n},{g2}] failed checks: {poly}")
                self.entries[(n, g2)] = poly
        return self

    def q(self, m: int, g2: int) -> Poly:
        """Sum of (6 n3 n4 - 2(n3+n4) + 1) K[n3-1] K[n4-1] over splits of (m, g2)."""
        key = (m, g2)
        if key not in self._q:
            K = self.poly
            parts = []
            for ga, gb in _genus_splits(g2):
                for n3 in range(m + 1):
                    a = K(n3 - 1, ga)
                    if a.is_zero():
                        continue
                    b = K(m - n3 - 1, gb)
                    if b.is_zero():
                        continue
                    n4 = m - n3
                    parts.append((6 * n3 * n4 - 2 * m + 1) * (a * b))
            self._q[key] = Poly.sum(parts)
        return self._q[key]

    def shift_weight(self, n1: int, g2_1: int) -> Poly:
        """Expansion kernel of the simultaneous (u, v) charge shift:
        sum over monomials u^p v^q z^k of K[n1, g2_0], g2_0 <= g2_1, of
        2^(2 + g2_1 - g2_0) C(p,i) C(q, m-k-i) u^i v^(m-k-i) z^k with
        m = n1 - g2_1 (z-exponents pass through unshifted)."""
        key = (n1, g2_1)
        if key not in self._w:
            m = n1 - g2_1
            acc: dict[tuple[int, int, int], Fraction] = {}
            if m >= 0:
                for g2_0 in _sub_genus(g2_1):
                    K = self.poly(n1, g2_0)
                    if K.is_zero():
                        continue
                    factor = 2 ** (2 + g2_1 - g2_0)
                    for (p, k, q), c in K.items():
                        top = m - k
                        if top < 0:
                            continue
                        for i in range(max(0, top - q), min(p, top) + 1):
                            w = factor * comb(p, i) * comb(q, top - i) * c
                            if w:
                                kk = (i, k, top - i)
                                acc[kk] = acc.get(kk, Fraction(0)) + w
            self._w[key] = Poly.from_terms(acc)
        return self._w[key]

    def bracket(self, n2: int, g2_2: int) -> Poly:
        key = (n2, g2_2)
        if key not in self._br:
            K = self.poly
            parts = [
                (-(n2 + 1)) * K(n2, g2_2),
                (2 * n2 - 1) * (_SUM3 * K(n2 - 1, g2_2) - K(n2 - 1, g2_2 - 1)),
                ((2 * n2 - 1) * (2 * n2 - 3) * n2) * K(n2 - 2, g2_2 - 2),
                (-6 * (n2 - 1)) * (_DIFF3 * K(n2 - 2, g2_2 - 1)),
                -_psi(n2) * K(n2 - 2, g2_2),
                2 * self.q(n2, g2_2),
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
            self._br[key] = Poly.sum(parts)
        return self._br[key]


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
        2 * table.q(n, g2),
    ]).scale(Fraction(1, n + 1))
    double = []
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(1, n):
            w = table.shift_weight(n1, g2_1)
            if w.is_zero():
                continue
            br = table.bracket(n - n1, g2_2)
            if br.is_zero():
                continue
            double.append(w * br)
    return first - Poly.sum(double).scale(Fraction(1, (n - 2) * (n + 1)))


class BipOneFaceTable:
    """b[n, i, j]: rooted one-face bipartite maps, i black and j white vertices.

    Rows n <= 3 are seeded; the depth-4 linear recursion fills n >= 4.
    Three signs here differ from circulating forms of this recursion
    (two of those would break black/white symmetry, which these counts
    provably have); every sign used is pinned against the one-face
    slice of the full trivariate table for every n <= 10.
    """

    _INITIAL = {
        (1, 1, 1): 1,
        (2, 2, 1): 1, (2, 1, 2): 1, (2, 1, 1): 1,
        (3, 3, 1): 1, (3, 1, 3): 1,
        (3, 2, 2): 3, (3, 2, 1): 3, (3, 1, 2): 3,
        (3, 1, 1): 4,
    }

    def __init__(self):
        self.entries = dict(self._INITIAL)
        self._filled_n = 3

    def value(self, n: int, i: int, j: int) -> int:
        if i <= 0 or j <= 0 or i + j > n + 1:
            return 0
        if n <= 3:
            return self.entries.get((n, i, j), 0)
        try:
            return self.entries[(n, i, j)]
        except KeyError:
            raise MissingEntryError(f"bip-oneface[{n},{i},{j}] not filled yet") from None

    def fill(self, n_max: int) -> "BipOneFaceTable":
        for n in range(max(4, self._filled_n + 1), n_max + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 2 - i):
                    self.entries[(n, i, j)] = bip_oneface(n, i, j, self)
        self._filled_n = max(self._filled_n, n_max)
        return self


def bip_oneface(n: int, i: int, j: int, table: BipOneFaceTable) -> int:
    """One step of the bipartite one-face recursion; division by n+1 exact."""
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
    coeffs = {}
    for n in range(1, order + 1):
        s = Poly.sum(table.poly(n, g2) for g2 in range(n + 1))
        coeffs[n] = s.scale(Fraction(1, 2 * n))
    return TSeries.truncated(coeffs, order, min_order=min(1, order))


def bip_oneface_series(table: BipOneFaceTable, order: int) -> TSeries:
    """One-face bipartite series: sum b[n,i,j]/(2n) t^n u^i v^j."""
    coeffs = {}
    for n in range(1, order + 1):
        coeffs[n] = Poly.from_terms({
            (i, 0, j): Fraction(table.value(n, i, j), 2 * n)
            for i in range(1, n + 1)
            for j in range(1, n + 2 - i)
            if table.value(n, i, j)
        })
    return TSeries.truncated(coeffs, order, min_order=min(1, order))
