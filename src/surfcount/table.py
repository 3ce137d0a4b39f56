"""Scaffolding shared by the recurrence tables.

Every table keeps its filled cells in `entries`, seeded from the class's
SEEDS; reading a cell that is not there raises MissingEntryError.  Every
table fills a row, every genus of it, at a time, by one method per kind
of table.  The scalar tables (`Table._fill_convolution`) recompute each
row from genus convolutions of lower rows, held as int lists local to
the fill.  The one-face tables run a linear recursion of depth 4
(`Table._fill_linear`): row n is one step over rows n-1..n-4, held as
zero-padded int lists local to the fill.  Both check each new int cell
in one place (`Table._cell`: an exact division, then a non-negative
result).  One rule holds for a cell a table already holds: a fill
computes every row that lacks a cell, whole, and writes every cell it
computes over the one held (a cell the count cache loaded among them);
a complete row is read, not recomputed, but by `_fill_convolution`.
In the polynomial tables (`PolyTable._fill`) genus is degree: by
Euler's relation cell (n, g2) is homogeneous of degree n + 2 - g2, so
row n of every genus is the plain sum of its cells and comes back apart
by degree (`split`).  A product of two rows adds genera as it adds
degrees, a move to g2 + k is a scaling, and each step is a few
`Poly.dot` calls per row, not per cell.  Their building blocks are Memo rows, computed on first read;
each new cell is checked (`PolyTable._check`: integral, homogeneous,
non-negative) before it is written.  The charge-shift weights of every
polynomial table are `Poly.charge_shift` of its rows, the one
charge-shift operator; the scalar tables take it at all ones, each
cell's binomial weights added once to a running list as the cell
becomes known.  One polynomial kernel lives here:
`square_sum`, the quadratic sum of the map and bipartite brackets.  The
formulas themselves, the zero region of each table and its `fill` stay
in the model modules.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb

from .errors import IntegralityError, MissingEntryError
from .poly import Poly
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
    """Seeded entries, filled a row at a time.

    A subclass sets NAME (its symbol in error messages) and SEEDS, reads
    cells through its own `value` or `poly`, which owns the zero region,
    and defines `fill` in its own body: a call to `_fill_convolution`,
    `_fill_linear` or `PolyTable._fill` with its formulas.
    """

    NAME = ""
    SEEDS: dict = {}

    def __init__(self):
        self.entries = Entries(self.SEEDS)
        self.entries.name = self.NAME

    def _fill_linear(self, n_max: int, keys, step, layout):
        """Rows 4..n_max of a linear recursion of depth 4, whose row n is
        step(n, *history) over n + 1.  keys(n) lists the cells of row n,
        step gives one total per cell in that order, and history holds
        rows n-1..n-4, each laid out by layout(m, values of row m at
        keys(m)).  A row with a cell missing is computed whole, each cell
        written once `_cell` has checked it; a complete row is read."""
        entries = self.entries
        history = [layout(m, [self.value(*key) for key in keys(m)]) for m in (3, 2, 1, 0)]
        for n in range(4, n_max + 1):
            row = keys(n)
            if not all(key in entries for key in row):
                for key, total in zip(row, step(n, *history)):
                    entries[key] = self._cell(key, total, n + 1)
            history = [layout(n, [entries[key] for key in row])] + history[:3]
        return self

    def _fill_convolution(self, n_max: int, g2_max: int | None, reach: int, scale, core,
                          lead, divisor, boundary: dict):
        """Rows 3..n_max of a genus-convolution recurrence, cut at g2_max,
        every row recomputed; row m holds g2 = 0..m + reach, and rows 0..2
        are read through `value`.

        The fill keeps, for every row m from 0 up and as lists by genus,
        scale(m) times the row, its charge-shift weights and its bracket:
        core less (m + 1) times the row, plus the corrections boundary[m];
        row 0's bracket is boundary[0] alone.  The weight of row m at g2_1
        is the sum over g2_0 <= g2_1 of the same parity of
        C(m + 2 - g2_0, m - g2_1) 2^(2 + g2_1 - g2_0) times cell g2_0:
        `Poly.charge_shift` of u^(m + 2 - g2_0) at u = 1, and by
        Vandermonde engine "cc"'s weight at all ones.  The weights are
        running sums, each cell's terms added once, as soon as it is known.
        core(n, g2, q) is the bracket of row n without its cell term, q
        the quadratic sum of the scaled rows n3 - 1 and n4 - 1 over
        n3 + n4 = n.  Cell (n, g2) is lead(n) core less the shift sum,
        over divisor(n, g2), checked by `_cell`.  The shift sum convolves
        the weights of row n1 with the bracket of row n - n1 for
        n1 = 0..n: at n1 = 0 that bracket is core, and at n1 = n the
        weights are those of row n as they stand, without the unknown
        cell's own term."""
        top = n_max + reach if g2_max is None else g2_max
        scaled, weight, bracket = [], [], [list(boundary.get(0, ()))]
        bracket0 = list(enumerate(bracket[0]))
        for n in range(n_max + 1):
            genera = range(min(n + reach, top) + 1)
            if n:
                q = convolve_square(scaled, n - 2, len(genera))
                own = [core(n, g2, q[g2]) for g2 in genera]
            if n >= 3:
                shift = convolve([0] * len(genera),
                                 ((weight[n1], bracket[n - n1] if n1 else own) for n1 in range(n)))
                first = lead(n)
            row, w, w_top = [], [0] * len(genera), min(n, top)
            for g2 in genera:
                if n < 3:
                    v = self.value(n, g2)
                else:
                    total = first * own[g2] - shift[g2]
                    for g, b in bracket0:   # n1 = n, over w as it stands
                        if g <= g2:
                            total -= b * w[g2 - g]
                    v = self.entries[n, g2] = self._cell((n, g2), total, divisor(n, g2))
                row.append(v)
                for g2_1 in range(g2, w_top + 1, 2):
                    w[g2_1] += (comb(n + 2 - g2, n - g2_1) * v) << (2 + g2_1 - g2)
            scaled.append([scale(n) * v for v in row])
            weight.append(w)
            if n:
                full = [b - (n + 1) * v for b, v in zip(own, row)]
                for g2, c in zip(genera, boundary.get(n, ())):
                    full[g2] += c
                bracket.append(full)
        return self

    def _cell(self, key: tuple, total: int, div: int) -> int:
        """total / div, the new int cell at key: IntegralityError unless
        the division is exact and the result non-negative."""
        quot, rem = divmod(total, div)
        if rem:
            raise IntegralityError(f"{self.NAME}[{','.join(map(str, key))}]: "
                                   f"{total} not divisible by {div}")
        if quot < 0:
            raise IntegralityError(f"{self.NAME}[{','.join(map(str, key))}] = {quot} is negative")
        return quot


class PolyTable(Table):
    """A table of polynomials in the cell (n, g2), counted at all ones,
    filled one row at a time.

    Row n of every genus at once is the sum of its cells, each term's g2
    read off its degree (`Poly.parts_by_degree` from n + 2), so a product
    of rows adds genera and a genus move is a scaling.  The building blocks are memos of such rows,
    keyed (m, c) with c = min(m, cap) for the fill's genus cap (`cut`):
    `row`, the cells themselves; `core`, the subclass's bracket without
    the term -(m+1)/d cell(m, g2), its parts above genus c dropped;
    `bracket`, core plus that term; `shift_weight`, the charge-shift
    weights of row m (`Poly.charge_shift` of the row, slot `slot`), its
    weight at g2_1 of degree m - g2_1, so that cutting at c is the floor
    m - c.
    """

    def __init__(self, core, d: int, slot: int | None):
        super().__init__()
        self.row = Memo(PolyTable._row, self)
        self.core = Memo(lambda tab, m, c: below(core(tab, m, c), m, c), self)
        self.bracket = Memo(PolyTable._bracket, self)
        self.shift_weight = Memo(lambda tab, m, c: tab.row[m, c].charge_shift(slot, m - c), self)
        self.d = d

    def _row(self, m: int, c: int) -> Poly:
        return Poly.sum(self.poly(m, g2) for g2 in range(c + 1))

    def _bracket(self, m: int, c: int) -> Poly:
        return self.core[m, c] + self.row[m, c].scale(Fraction(-(m + 1), self.d))

    def _fill(self, rec, n_max: int, g2_max: int | None):
        """Rows 3..n_max, cut at g2_max: each row with a cell missing is
        rec(n, top, self), its cells by ascending g2 up to top, each checked
        and written before the next is read; a complete row is read."""
        entries = self.entries
        for n in range(3, n_max + 1):
            top = n if g2_max is None else min(n, g2_max)
            if not all((n, g2) in entries for g2 in range(top + 1)):
                for g2, poly in enumerate(rec(n, top, self)):
                    entries[n, g2] = self._check(n, g2, poly)
        return self

    def _check(self, n: int, g2: int, poly: Poly) -> Poly:
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


def cut(memo: Memo, c: int):
    """m -> memo[m, min(m, c)]: the rows of a building block that a row
    cut at genus c reads."""
    return lambda m: memo[m, min(m, c)]


def below(row: Poly, m: int, c: int) -> Poly:
    """Row m without its parts of genus above c: the terms of degree at
    least m + 2 - c.  A bracket of row m >= 1 has no genus above m."""
    return row if c >= m else row.degree_at_least(m + 2 - c)


def square_sum(rows, m: int, weight) -> list:
    """The Poly.dot triples of the sum of weight(n3, n4) rows(n3-1)
    rows(n4-1) over n3 + n4 = m, n3, n4 >= 1, for a weight symmetric in
    (n3, n4): one triple per mirrored pair, at double weight unless
    n3 = n4, where both factors are one row and the product a square."""
    return [(weight(n3, m - n3) * (2 if 2 * n3 != m else 1), rows(n3 - 1), rows(m - n3 - 1))
            for n3 in range(1, m // 2 + 1)]


def convolve(acc: list, pairs) -> list:
    """acc[g] += sum over (a, b) in pairs and over i of a[i] b[g - i], for
    every g < len(acc): genus convolutions of rows, truncated at acc."""
    width = len(acc)
    for a, b in pairs:
        if len(a) > len(b):   # the longer list inner, as in Poly.dot
            a, b = b, a
        whole = width - len(b)   # b is cut only past a[whole]
        for i, x in enumerate(a[:width]):
            if x:
                for g, y in enumerate(b if i <= whole else b[:width - i], i):
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
    return TSeries.truncated({step * n: coeff(n) for n in range(1, order // step + 1)}, order)
