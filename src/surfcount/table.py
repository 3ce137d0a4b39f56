"""Scaffolding shared by the recurrence tables.

Every table keeps its filled cells in `entries`, seeded from the class's
SEEDS; reading a cell that is not there raises MissingEntryError.  The
polynomial and one-face tables fill with one sweep that skips the cells
already there (seeds, and rows of the polynomial tables loaded from the
count cache) and keep building blocks in Memo dicts, computed on first
read.  PolyTable derives `bracket` from each engine's `core` and checks
each new cell in one `_step`: integral, homogeneous, non-negative.  The
scalar tables recompute each row from genus convolutions of lower rows.
Beside the scalar `shift_weight`, two polynomial kernels live here:
`square_sum`, the quadratic sum of the map and bipartite brackets, and
`charge_shift`, the charge-shift weight of engine "cc" and of the
bipartite engine.  The other formulas, the zero region of each table
and its `fill` stay in the model modules.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb, lcm

from .errors import IntegralityError, MissingEntryError
from .poly import Poly, _pack, _unpack
from .tseries import TSeries


class Entries(dict):
    """Filled cells by index tuple; reading a missing one raises
    MissingEntryError."""

    __slots__ = ("name",)

    def __missing__(self, key):
        raise MissingEntryError(f"{self.name}[{', '.join(map(str, key))}] not filled yet")


class Memo(dict):
    """fn(table, *key) for every key read, computed once and kept.

    The table is held through a weak reference: it holds its memos, and a
    strong reference back (a bound method included) would put every table
    in a reference cycle that only the garbage collector frees.
    """

    __slots__ = ("fn", "table")

    def __init__(self, fn, table):
        self.fn = fn
        self.table = weakref.ref(table)

    def __missing__(self, key):
        value = self[key] = self.fn(self.table(), *key)
        return value


class Table:
    """Seeded entries and the fill sweep.

    A subclass sets NAME (its symbol in error messages) and SEEDS, reads
    cells through its own `value` or `poly`, which owns the zero region,
    and defines `fill` in its own body: a call to `_sweep`, or for the
    scalar tables a row loop that writes each cell into `entries`.
    """

    NAME = ""
    SEEDS: dict = {}

    def __init__(self):
        self.entries = Entries(self.SEEDS)
        self.entries.name = self.NAME

    def _sweep(self, cells, step):
        """entries[cell] = step(*cell) for each cell not filled yet, in order."""
        entries = self.entries
        for cell in cells:
            if cell not in entries:
                entries[cell] = step(*cell)
        return self


class PolyTable(Table):
    """A table of polynomials in the cell (n, g2), counted at all ones.

    The subclass passes core(table, n2, g2_2), its bracket without the
    term -(n2+1)/d cell(n2, g2_2), and d; `bracket` adds the term back.
    """

    def __init__(self, core, d: int):
        super().__init__()
        self.core = Memo(core, self)
        self.bracket = Memo(PolyTable._bracket, self)
        self.d = d

    def _bracket(self, n2: int, g2_2: int) -> Poly:
        return self.core[n2, g2_2] + self.poly(n2, g2_2).scale(Fraction(-(n2 + 1), self.d))

    def _step(self, rec, n: int, g2: int) -> Poly:
        poly = rec(n, g2, self)
        if not (poly.is_integral() and poly.is_homogeneous(n + 2 - g2)
                and poly.has_nonnegative_coeffs()):
            raise IntegralityError(f"{self.NAME}[{n},{g2}] is not integral, homogeneous "
                                   f"and non-negative: {poly}")
        return poly

    def count(self, n: int, g2: int) -> int:
        val = self.poly(n, g2).evaluate()
        if val.denominator != 1:
            raise IntegralityError(f"{self.NAME}[{n},{g2}] at all ones = {val} is not an integer")
        return val.numerator


def _grid(n_min: int, n_max: int, g2_max: int | None = None):
    """Cells (n, g2) with n_min <= n <= n_max and 0 <= g2 <= n, capped at
    g2_max, row by row."""
    for n in range(n_min, n_max + 1):
        top = n if g2_max is None else min(n, g2_max)
        for g2 in range(top + 1):
            yield n, g2


def _genus_splits(g2):
    """Pairs (g2_1, g2_2) with g2_1 + g2_2 = g2, both >= 0, half-int steps."""
    return ((a, g2 - a) for a in range(g2 + 1))


def square_sum(poly, m: int, g2: int, weight) -> Poly:
    """Sum of weight(n3, n4) poly(n3-1, ga) poly(n4-1, gb) over n3 + n4 = m,
    ga + gb = g2 with n3 > ga and n4 > gb (else a factor is zero), for a
    weight symmetric in (n3, n4): one product per mirrored pair of splits,
    at double weight unless it is its own mirror."""
    return Poly.dot((weight(n3, m - n3) * (2 if (n3, ga) != (m - n3, gb) else 1),
                     poly(n3 - 1, ga), poly(m - n3 - 1, gb))
                    for ga, gb in _genus_splits(g2)
                    for n3 in range(ga + 1, min(m // 2, m - gb - 1) + 1)
                    if (n3, ga) <= (m - n3, gb))


def _sub_genus(g2_1):
    """Values g2_0 <= g2_1 with g1 - g0 a non-negative integer."""
    return range(g2_1 % 2, g2_1 + 1, 2)


def shift_weight(n1: int, g2_1: int, row) -> int:
    """Sum over g2_0 in _sub_genus(g2_1) of C(n1+2-g2_0, n1-g2_1)
    2^(2+g2_1-g2_0) row[g2_0], where row holds the cells of row n1 by
    genus: the univariate charge-shift weight, zero when n1 < g2_1."""
    if n1 < g2_1:
        return 0
    return sum((comb(n1 + 2 - g2_0, n1 - g2_1) * row[g2_0]) << (2 + g2_1 - g2_0)
               for g2_0 in _sub_genus(g2_1))


def charge_shift(poly, n1: int, g2_1: int, slot: int) -> Poly:
    """The polynomial charge-shift weight, zero when n1 < g2_1: the sum over
    g2_0 in _sub_genus(g2_1) and over the monomials c u^p w^q x^k of
    poly(n1, g2_0) of 2^(2+g2_1-g2_0) C(p, i) C(q, m-k-i) c u^i w^(m-k-i) x^k,
    m = n1 - g2_1.  u shifts together with w, the variable of exponent slot
    `slot` (1: z, engine "cc"; 2: v, bipartite), and x passes through.  At
    all ones it is shift_weight of the row, by Vandermonde's identity."""
    m = n1 - g2_1
    if m < 0:
        return Poly.zero()
    polys = [(g2_0, poly(n1, g2_0)) for g2_0 in _sub_genus(g2_1)]
    den = lcm(*(p.den for _, p in polys))
    # packed keys are linear in the exponents: base is the key of w^(m-k) x^k,
    # and moving one power from w to u adds step
    unit_u, unit_w = _pack(1, 0, 0), _pack(0, 1, 0) if slot == 1 else _pack(0, 0, 1)
    step = unit_u - unit_w
    acc: dict[int, int] = {}
    get = acc.get
    for g2_0, p in polys:
        factor = (den // p.den) << (2 + g2_1 - g2_0)
        for e, c in p.terms.items():
            exps = _unpack(e)
            eu, ew, top = exps[0], exps[slot], m - exps[3 - slot]
            base = e - eu * unit_u + (top - ew) * unit_w
            c *= factor
            for i in range(max(0, top - ew), min(eu, top) + 1):
                k = base + i * step
                acc[k] = get(k, 0) + comb(eu, i) * comb(ew, top - i) * c
    return Poly(acc, den)


def convolve(acc: list, pairs) -> list:
    """acc[g] += sum over (a, b) in pairs and over i of a[i] b[g - i], for
    every g < len(acc): genus convolutions of rows, truncated at acc."""
    width = len(acc)
    for a, b in pairs:
        for i, x in enumerate(a[:width]):
            if x:
                for g, y in enumerate(b[:width - i], i):
                    acc[g] += x * y
    return acc


def convolve_square(rows, m: int, width: int) -> list:
    """Sum over a + b = m of the genus convolution of rows[a] and rows[b],
    truncated at width; each unordered pair is convolved once."""
    acc = [2 * x for x in convolve([0] * width, ((rows[a], rows[m - a])
                                                 for a in range((m + 1) // 2)))]
    return convolve(acc, [(rows[m // 2], rows[m // 2])] if m % 2 == 0 else [])


def row_series(order: int, step: int, coeff) -> TSeries:
    """Sum over n >= 1 of coeff(n) t^(step n), truncated at t^order."""
    return TSeries.truncated({step * n: coeff(n) for n in range(1, order // step + 1)},
                             order, min_order=min(step, order))
