"""Rooted triangulations (all faces of degree 3) on all surfaces.

t[n, g2] counts rooted triangulations with 2n faces (equivalently 3n
edges) and genus g2/2.  Pure integer data; the recurrence prefactor
denominator D(n, g) = 2n^2 + (3-2g)n + (1-g)(1-2g) depends on the genus
and is checked nonzero at every visited cell rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IntegralityError, MissingEntryError
from .maps import _genus_splits, _sub_genus
from .poly import Poly
from .tseries import TSeries

_INITIAL = {
    (1, 0): 4, (1, 1): 9, (1, 2): 7,
    (2, 0): 32, (2, 1): 118, (2, 2): 202, (2, 3): 128,
}


def prefactor_denominator(n: int, g2: int) -> Fraction:
    """D(n, g) with g = g2/2, exact."""
    return Fraction(4 * n * n + 2 * (3 - g2) * n + (2 - g2) * (1 - g2), 2)


class TriTable:
    def __init__(self):
        self.entries: dict[tuple[int, int], int] = dict(_INITIAL)
        self._q: dict[tuple[int, int], int] = {}

    def value(self, n: int, g2: int) -> int:
        if n <= 0 or g2 < 0 or n < g2 - 1:
            return 0
        try:
            return self.entries[(n, g2)]
        except KeyError:
            raise MissingEntryError(f"t[n={n}, g2={g2}] not filled yet") from None

    def fill(self, n_max: int, g2_max: int | None = None) -> "TriTable":
        for n in range(3, n_max + 1):
            top = n + 1 if g2_max is None else min(n + 1, g2_max)
            for g2 in range(top + 1):
                if (n, g2) in self.entries:
                    continue
                self.entries[(n, g2)] = tri_rec(n, g2, self)
        return self

    def q(self, m: int, g2: int) -> int:
        """Sum of (3 n3 - 1)(3 n4 - 1) t[n3-1] t[n4-1] over splits of (m, g2)."""
        key = (m, g2)
        if key not in self._q:
            t = self.value
            self._q[key] = sum(
                (3 * n3 - 1) * (3 * (m - n3) - 1) * t(n3 - 1, ga) * t(m - n3 - 1, gb)
                for ga, gb in _genus_splits(g2)
                for n3 in range(m + 1)
            )
        return self._q[key]


def _bracket(tab: TriTable, n2: int, g2_2: int, n1: int, g2_1: int, g2_0: int,
             n: int, g2: int) -> Fraction:
    t = tab.value
    total = Fraction(
        (3 * n2 - 1) * t(n2 - 1, g2_2)
        + 2 * (3 * n2 - 4) * (
            (3 * n2 - 2) * n2 * t(n2 - 2, g2_2 - 2)
            + 2 * (t(n2 - 2, g2_2 - 1) + t(n2 - 2, g2_2))
        )
        + tab.q(n2, g2_2)
    )
    total += Fraction(-(n2 + 1), 8) * t(n2, g2_2)
    if n1 == n and g2_0 != g2:
        if g2_1 == g2:
            total += Fraction(1, 8)
        elif g2_1 == g2 - 1:
            total -= Fraction(1, 8)
    if n1 == n - 1:
        if g2_1 == g2 or g2_1 == g2 - 1:
            total += 2
        elif g2_1 == g2 - 2:
            total += 1
    elif n1 == n - 2:
        if g2_1 == g2:
            total += 4
        elif g2_1 == g2 - 1:
            total += 8
        elif g2_1 == g2 - 2:
            total += 36
        elif g2_1 == g2 - 3:
            total += 32
    return total


def tri_rec(n: int, g2: int, table: TriTable) -> int:
    """One recurrence step for t[n, g2] (n > 2, dependencies filled)."""
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    D = prefactor_denominator(n, g2)
    if D == 0:
        raise ArithmeticError(f"prefactor denominator vanishes at (n={n}, g2={g2})")
    t = table.value
    total = Fraction(n * (
        6 * (3 * n - 1) * t(n - 1, g2)
        + 12 * (3 * n - 4) * (
            (3 * n - 2) * n * t(n - 2, g2 - 2)
            + 2 * (t(n - 2, g2 - 1) + t(n - 2, g2))
        )
        + 6 * table.q(n, g2)
    ))
    for g2_1, g2_2 in _genus_splits(g2):
        for n1 in range(1, n + 1):
            n2 = n - n1
            for g2_0 in _sub_genus(g2_1):
                if n1 == n and g2_0 == g2:
                    continue  # self term; its bracket vanishes identically
                if n1 < g2_1:
                    continue
                tv = t(n1, g2_0)
                if not tv:
                    continue
                br = _bracket(table, n2, g2_2, n1, g2_1, g2_0, n, g2)
                if br:
                    w = comb(n1 + 2 - g2_0, n1 - g2_1) * 2 ** (2 + g2_1 - g2_0) * tv
                    total -= w * br
    total *= 2 / D
    if total.denominator != 1:
        raise IntegralityError(f"t[{n},{g2}] = {total} is not an integer")
    if total < 0:
        raise IntegralityError(f"t[{n},{g2}] = {total} is negative")
    return int(total)


def xi_series(table: TriTable, order: int) -> TSeries:
    """Triangulation generating series: sum t[n,g2]/(12n) t^{6n} z^{2n} u^{n+2-g2}."""
    coeffs = {}
    for n in range(1, order // 6 + 1):
        coeffs[6 * n] = Poly.from_terms({
            (n + 2 - g2, 2 * n, 0): Fraction(table.value(n, g2), 12 * n)
            for g2 in range(n + 2)
            if table.value(n, g2)
        })
    return TSeries.truncated(coeffs, order, min_order=min(6, order))
