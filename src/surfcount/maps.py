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
outputs is a strong end-to-end check.  A third, integer-only fast path
computes the univariate counts h[n, g2] = H[n, g2](1, 1) directly.

The one-face counts (maps whose complement is a single disk) obey a
separate linear recursion, filled in OneFaceTable.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IntegralityError, MissingEntryError
from .poly import Poly, U, Z
from .tseries import TSeries

_UZ = U * Z
_4U_Z = 4 * U + Z
_U_Z = U + Z

# Nonzero seeds shared by both bivariate engines (keyed by (n, g2)).
_INITIAL = {
    (1, 0): _UZ * _U_Z,
    (1, 1): _UZ,
    (2, 0): _UZ * (2 * U * U + 5 * _UZ + 2 * Z * Z),
    (2, 1): 5 * _UZ * _U_Z,
    (2, 2): 5 * _UZ,
}


def _genus_splits(g2):
    """Pairs (g2_1, g2_2) with g2_1 + g2_2 = g2, both >= 0, half-int steps."""
    return ((a, g2 - a) for a in range(g2 + 1))


def _sub_genus(g2_1):
    """Values g2_0 <= g2_1 with g1 - g0 a non-negative integer."""
    return range(g2_1 % 2, g2_1 + 1, 2)


class MapsTable:
    """Bivariate table of H[n, g2], filled by one recurrence engine."""

    def __init__(self, engine: str = "cc"):
        if engine not in ("kz", "cc"):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.entries: dict[tuple[int, int], Poly] = dict(_INITIAL)
        self._q1: dict[tuple[int, int], Poly] = {}
        self._q2: dict[tuple[int, int], Poly] = {}
        self._w: dict[tuple[int, int, int], Poly] = {}
        self._br: dict[tuple[int, int], Poly] = {}

    def poly(self, n: int, g2: int) -> Poly:
        """H[n, g2] with this engine's boundary conventions."""
        if n < 0 or g2 < 0 or n < g2:
            return Poly.zero()
        if n == 0:
            return _UZ if (self.engine == "cc" and g2 == 0) else Poly.zero()
        try:
            return self.entries[(n, g2)]
        except KeyError:
            raise MissingEntryError(
                f"H[n={n}, g2={g2}] not filled yet (engine {self.engine})"
            ) from None

    def count(self, n: int, g2: int) -> int:
        val = self.poly(n, g2).evaluate()
        if val.denominator != 1:
            raise IntegralityError(f"H[{n},{g2}](1,1) = {val} is not an integer")
        return val.numerator

    def fill(self, n_max: int, g2_max: int | None = None) -> "MapsTable":
        for n in range(3, n_max + 1):
            top = n if g2_max is None else min(n, g2_max)
            for g2 in range(top + 1):
                if (n, g2) in self.entries:
                    continue
                poly = _rec_kz(n, g2, self) if self.engine == "kz" else _rec_cc(n, g2, self)
                deg = n + 2 - g2
                if not (poly.is_integral() and poly.is_homogeneous(deg)
                        and poly.has_nonnegative_coeffs()):
                    raise IntegralityError(
                        f"H[{n},{g2}] failed integrality/homogeneity: {poly}"
                    )
                self.entries[(n, g2)] = poly
        return self

    # memoized building blocks, all keyed on this table's own entries

    def q1(self, m: int, g2: int) -> Poly:
        """Sum of (2n3-1)(2n4-1) H[n3-1] H[n4-1] over n3+n4 = m, g3+g4 = g2."""
        key = (m, g2)
        if key not in self._q1:
            H = self.poly
            parts = []
            for ga, gb in _genus_splits(g2):
                for n3 in range(m + 1):
                    a = H(n3 - 1, ga)
                    if a.is_zero():
                        continue
                    b = H(m - n3 - 1, gb)
                    if b.is_zero():
                        continue
                    parts.append(((2 * n3 - 1) * (2 * (m - n3) - 1)) * (a * b))
            self._q1[key] = Poly.sum(parts)
        return self._q1[key]

    def q2(self, m: int, g2: int) -> Poly:
        """As q1 but with the extra weight n1 on the first factor."""
        key = (m, g2)
        if key not in self._q2:
            H = self.poly
            parts = []
            for ga, gb in _genus_splits(g2):
                for n1 in range(1, m + 1):
                    a = H(n1 - 1, ga)
                    if a.is_zero():
                        continue
                    b = H(m - n1 - 1, gb)
                    if b.is_zero():
                        continue
                    parts.append((n1 * (2 * n1 - 1) * (2 * (m - n1) - 1)) * (a * b))
            self._q2[key] = Poly.sum(parts)
        return self._q2[key]

    def shift_weight(self, n1: int, g2_1: int, g2_0: int) -> Poly:
        """One charge-shift expansion piece of the double sum.

        Engine "cc" shifts u and z together: the piece is
        sum over p+q = n1+2-g2_0 of phi_{p,q,m}(u,z) H[n1,g2_0]^{(p,q)}
        with m = n1 - g2_1 and phi the bivariate binomial kernel.
        Engine "kz" shifts u only, so z-exponents pass through:
        sum over j of C(p, 2 + g2_1 - g2_0) H^{(p,j)} u^{m-j} z^j
        with p = n1 + 2 - g2_0 - j.
        """
        key = (n1, g2_1, g2_0)
        if key not in self._w:
            m = n1 - g2_1
            H = self.poly(n1, g2_0)
            acc: dict[tuple[int, int, int], Fraction] = {}
            if m >= 0 and not H.is_zero():
                if self.engine == "cc":
                    for (p, q, _), c in H.items():
                        for i in range(max(0, m - q), min(p, m) + 1):
                            w = comb(p, i) * comb(q, m - i) * c
                            if w:
                                k = (i, m - i, 0)
                                acc[k] = acc.get(k, Fraction(0)) + w
                else:
                    r = 2 + g2_1 - g2_0
                    for (p, j, _), c in H.items():
                        if j <= m:
                            w = comb(p, r) * c
                            if w:
                                k = (m - j, j, 0)
                                acc[k] = acc.get(k, Fraction(0)) + w
            self._w[key] = Poly.from_terms(acc)
        return self._w[key]


def _br_kz(tab: MapsTable, n2: int, g2_2: int) -> Poly:
    """Engine-"kz" inner bracket without its boundary corrections."""
    key = (n2, g2_2)
    if key not in tab._br:
        H = tab.poly
        tab._br[key] = Poly.sum([
            Fraction(-(n2 + 1), 2) * H(n2, g2_2),
            (2 * n2 - 1) * (_4U_Z * H(n2 - 1, g2_2) - 2 * H(n2 - 1, g2_2 - 1)),
            (2 * (2 * n2 - 3)) * (
                ((2 * n2 - 1) * (n2 - 1)) * H(n2 - 2, g2_2 - 2)
                + 3 * _UZ * H(n2 - 2, g2_2)
            ),
            3 * tab.q1(n2, g2_2),
        ])
    return tab._br[key]


def _rec_kz(n: int, g2: int, tab: MapsTable) -> Poly:
    """Engine "kz" step: assemble the right side, then invert the diagonal
    operator n(n+1) + 3 i(i-1) on each u^i z^j coefficient."""
    H = tab.poly
    first = [
        (2 * n * (2 * n - 1)) * (_4U_Z * H(n - 1, g2) - 2 * H(n - 1, g2 - 1)),
        (4 * n * (2 * n - 3)) * (
            3 * _UZ * H(n - 2, g2)
            + ((2 * n - 1) * (n - 1)) * H(n - 2, g2 - 2)
        ),
        (6 * n) * tab.q1(n, g2),
    ]
    double = []
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(1, n + 1):
            n2 = n - n1
            base = _br_kz(tab, n2, g2_2)
            if n1 == n - 1:
                if g2_1 == g2:
                    base = base + _UZ * _4U_Z
                elif g2_1 == g2 - 1:
                    base = base - 2 * _UZ
            elif n1 == n - 2:
                if g2_1 == g2:
                    base = base + 3 * _UZ * _UZ
                elif g2_1 == g2 - 2:
                    base = base + 6 * _UZ
            for g2_0 in _sub_genus(g2_1):
                if n1 == n and g2_0 == g2:
                    continue  # self term; its bracket vanishes identically
                bracket = base
                if n1 == n and g2_0 != g2:
                    if g2_1 == g2:
                        bracket = bracket + Fraction(3, 2) * (U * U)
                    elif g2_1 == g2 - 1:
                        bracket = bracket + Fraction(-3, 2) * U
                if bracket.is_zero():
                    continue
                w = tab.shift_weight(n1, g2_1, g2_0)
                if w.is_zero():
                    continue
                double.append((2 ** (2 + g2_1 - g2_0)) * (w * bracket))
    rhs = Poly.sum(first) - Poly.sum(double)
    nn1 = n * (n + 1)
    out = {}
    for (i, j, _), c in rhs.items():
        out[(i, j, 0)] = c / (nn1 + 3 * i * (i - 1))
    return Poly.from_terms(out)


def _br_cc(tab: MapsTable, n2: int, g2_2: int, with_self: bool) -> Poly:
    """Engine-"cc" inner bracket; with_self=False drops the H[n2, g2_2] term
    (used exactly once per cell, where that entry is the unknown)."""
    key = (n2, g2_2)
    if with_self and key in tab._br:
        return tab._br[key]
    H = tab.poly
    parts = [
        Fraction((2 * n2 - 1) * (2 * n2 - 2) * (2 * n2 - 3), 2) * H(n2 - 2, g2_2 - 2),
        Fraction(2 * n2 - 1, 2) * (_U_Z * H(n2 - 1, g2_2) + H(n2 - 1, g2_2 - 1)),
        Fraction(6, 4) * tab.q1(n2, g2_2),
    ]
    if with_self:
        parts.append(Fraction(-(n2 + 1), 4) * H(n2, g2_2))
        tab._br[key] = Poly.sum(parts)
        return tab._br[key]
    return Poly.sum(parts)


def _rec_cc(n: int, g2: int, tab: MapsTable) -> Poly:
    """Engine "cc" step, prefactor 2/((n+1)(n-2))."""
    H = tab.poly
    first = [
        (n * (2 * n - 1)) * (_U_Z * H(n - 1, g2) + H(n - 1, g2 - 1)),
        Fraction((2 * n - 3) * (2 * n - 2) * (2 * n - 1) * 2 * n, 2) * H(n - 2, g2 - 2),
        6 * tab.q2(n, g2),
    ]
    double = []
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(0, n):
            n2 = n - n1
            with_self = not (n1 == 0 and g2_1 == 0)
            bracket = _br_cc(tab, n2, g2_2, with_self)
            if bracket.is_zero():
                continue
            for g2_0 in _sub_genus(g2_1):
                w = tab.shift_weight(n1, g2_1, g2_0)
                if w.is_zero():
                    continue
                double.append((2 ** (2 + g2_1 - g2_0)) * (w * bracket))
    rhs = Poly.sum(first) - Poly.sum(double)
    return rhs.scale(Fraction(2, (n + 1) * (n - 2)))


def maps_rec_kz(n: int, g2: int, table: MapsTable) -> Poly:
    """One engine-"kz" recurrence step (table must hold all dependencies)."""
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    return _rec_kz(n, g2, table)


def maps_rec_cc(n: int, g2: int, table: MapsTable) -> Poly:
    """One engine-"cc" recurrence step (table must hold all dependencies)."""
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    return _rec_cc(n, g2, table)


class MapsCounts:
    """Integer-only fast path for h[n, g2] = H[n, g2](1, 1).

    Mirrors engine "cc" at u = z = 1, where the bivariate shift kernel
    collapses to a single binomial coefficient.
    """

    _INITIAL = {(1, 0): 2, (1, 1): 1, (2, 0): 9, (2, 1): 10, (2, 2): 5}

    def __init__(self):
        self.entries = dict(self._INITIAL)
        self._q1 = {}
        self._q2 = {}

    def value(self, n: int, g2: int) -> Fraction | int:
        if n < 0 or g2 < 0 or n < g2:
            return 0
        if n == 0:
            return 1 if g2 == 0 else 0
        try:
            return self.entries[(n, g2)]
        except KeyError:
            raise MissingEntryError(f"h[n={n}, g2={g2}] not filled yet") from None

    def q1(self, m, g2):
        key = (m, g2)
        if key not in self._q1:
            h = self.value
            self._q1[key] = sum(
                (2 * n3 - 1) * (2 * (m - n3) - 1) * h(n3 - 1, ga) * h(m - n3 - 1, gb)
                for ga, gb in _genus_splits(g2)
                for n3 in range(m + 1)
            )
        return self._q1[key]

    def q2(self, m, g2):
        key = (m, g2)
        if key not in self._q2:
            h = self.value
            self._q2[key] = sum(
                n1 * (2 * n1 - 1) * (2 * (m - n1) - 1) * h(n1 - 1, ga) * h(m - n1 - 1, gb)
                for ga, gb in _genus_splits(g2)
                for n1 in range(1, m + 1)
            )
        return self._q2[key]

    def fill(self, n_max: int, g2_max: int | None = None) -> "MapsCounts":
        for n in range(3, n_max + 1):
            top = n if g2_max is None else min(n, g2_max)
            for g2 in range(top + 1):
                if (n, g2) in self.entries:
                    continue
                self.entries[(n, g2)] = self._step(n, g2)
        return self

    def _step(self, n: int, g2: int) -> int:
        h = self.value
        total = Fraction(
            n * (2 * n - 1) * (2 * h(n - 1, g2) + h(n - 1, g2 - 1))
            + Fraction((2 * n - 3) * (2 * n - 2) * (2 * n - 1) * 2 * n, 2) * h(n - 2, g2 - 2)
            + 6 * self.q2(n, g2)
        )
        for g2_1, g2_2 in _genus_splits(g2):
            for n1 in range(0, n):
                n2 = n - n1
                exclude_self = n1 == 0 and g2_1 == 0
                bracket = (
                    Fraction((2 * n2 - 1) * (2 * n2 - 2) * (2 * n2 - 3), 2) * h(n2 - 2, g2_2 - 2)
                    + (0 if exclude_self else Fraction(-(n2 + 1), 4) * h(n2, g2_2))
                    + Fraction(2 * n2 - 1, 2) * (2 * h(n2 - 1, g2_2) + h(n2 - 1, g2_2 - 1))
                    + Fraction(6, 4) * self.q1(n2, g2_2)
                )
                if not bracket:
                    continue
                w = sum(
                    comb(n1 + 2 - g2_0, n1 - g2_1) * 2 ** (2 + g2_1 - g2_0) * h(n1, g2_0)
                    for g2_0 in _sub_genus(g2_1)
                ) if n1 >= g2_1 else 0
                if w:
                    total -= w * bracket
        total *= Fraction(2, (n + 1) * (n - 2))
        if total.denominator != 1:
            raise IntegralityError(f"h[{n},{g2}] = {total} is not an integer")
        return int(total)


def maps_count(n: int, g2: int, table: MapsTable | None = None) -> int:
    """Number of rooted maps (orientable or not) with n edges and genus g2/2,
    as the all-ones evaluation of the bivariate "cc" table."""
    table = table or MapsTable("cc").fill(n)
    return table.count(n, g2)


def maps_count_univariate(n: int, g2: int, counts: MapsCounts | None = None) -> int:
    """Same number through the integer-only recurrence (fast path)."""
    counts = counts or MapsCounts().fill(n)
    return int(counts.value(n, g2))


class OneFaceTable:
    """u[n, g2]: rooted one-face maps with n edges and genus g2/2.

    An 8-term linear recursion fills n >= 4.  Rows n <= 3 are seeded
    (the planar row is the Catalan numbers), as is the empty-map value
    u[0, 0] = 1 consumed by the depth-4 history term.
    """

    _INITIAL = {
        (0, 0): 1,
        (1, 0): 1, (1, 1): 1,
        (2, 0): 2, (2, 1): 5, (2, 2): 5,
        (3, 0): 5, (3, 1): 22, (3, 2): 52, (3, 3): 41,
    }

    def __init__(self):
        self.entries = dict(self._INITIAL)
        self._filled_n = 3

    def value(self, n: int, g2: int) -> int:
        if g2 < 0 or g2 > n:
            return 0
        try:
            return self.entries[(n, g2)]
        except KeyError:
            raise MissingEntryError(f"oneface[n={n}, g2={g2}] not filled yet") from None

    def fill(self, n_max: int) -> "OneFaceTable":
        for n in range(max(4, self._filled_n + 1), n_max + 1):
            for g2 in range(n + 1):
                self.entries[(n, g2)] = ledoux(n, g2, self)
        self._filled_n = max(self._filled_n, n_max)
        return self


def ledoux(n: int, g2: int, table: OneFaceTable) -> int:
    """One step of the linear one-face recursion; division by n+1 is exact."""
    u = table.value
    total = (
        (8 * n - 2) * u(n - 1, g2)
        - (4 * n - 1) * u(n - 1, g2 - 1)
        + n * (2 * n - 3) * (10 * n - 9) * u(n - 2, g2 - 2)
        - 8 * (2 * n - 3) * u(n - 2, g2)
        - 10 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * u(n - 3, g2 - 2)
        + 5 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * u(n - 3, g2 - 3)
        + 8 * (2 * n - 3) * u(n - 2, g2 - 1)
        - 2 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * (2 * n - 6) * (2 * n - 7) * u(n - 4, g2 - 4)
    )
    quot, rem = divmod(total, n + 1)
    if rem:
        raise IntegralityError(f"oneface[{n},{g2}]: {total} not divisible by {n + 1}")
    return quot


def theta_series(table: MapsTable, order: int) -> TSeries:
    """The map generating series in t up to the given order (t^2 marks an edge,
    each coefficient is sum_g H[n, g2] / (4n))."""
    coeffs = {}
    for n in range(1, order // 2 + 1):
        s = Poly.sum(table.poly(n, g2) for g2 in range(n + 1))
        coeffs[2 * n] = s.scale(Fraction(1, 4 * n))
    return TSeries.truncated(coeffs, order, min_order=min(2, order))


def oneface_series(table: OneFaceTable, order: int) -> TSeries:
    """Generating series of one-face maps: sum u[n,g2]/(4n) t^{2n} u^{n+1-g2}."""
    coeffs = {}
    for n in range(1, order // 2 + 1):
        coeffs[2 * n] = Poly.from_terms({
            (n + 1 - g2, 0, 0): Fraction(table.value(n, g2), 4 * n)
            for g2 in range(n + 1)
        })
    return TSeries.truncated(coeffs, order, min_order=min(2, order))
