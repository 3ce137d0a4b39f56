"""Scaffolding shared by the recurrence tables.

Every table keeps its filled cells in `entries`, seeded from the class's
SEEDS, and fills them with one sweep that skips the cells already there
(seeds, cells loaded from the count cache).  Reading a cell that is not
there raises MissingEntryError.  Building blocks that do not depend on
the target cell are Memo dicts, computed on first read.  The formulas,
the zero region of each table and its `fill` stay in the model modules.
"""

from __future__ import annotations

import weakref
from math import comb

from .errors import IntegralityError, MissingEntryError
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
    and defines `fill` in its own body as a call to `_sweep`.
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
    """A table of polynomials in the cell (n, g2), counted at all ones."""

    def count(self, n: int, g2: int) -> int:
        val = self.poly(n, g2).evaluate()
        if val.denominator != 1:
            raise IntegralityError(f"{self.NAME}[{n},{g2}] at all ones = {val} is not an integer")
        return val.numerator


def _grid(n_min: int, n_max: int, g2_max: int | None = None, excess: int = 0):
    """Cells (n, g2) with n_min <= n <= n_max and 0 <= g2 <= n + excess,
    capped at g2_max, row by row."""
    for n in range(n_min, n_max + 1):
        top = n + excess if g2_max is None else min(n + excess, g2_max)
        for g2 in range(top + 1):
            yield n, g2


def _genus_splits(g2):
    """Pairs (g2_1, g2_2) with g2_1 + g2_2 = g2, both >= 0, half-int steps."""
    return ((a, g2 - a) for a in range(g2 + 1))


def _sub_genus(g2_1):
    """Values g2_0 <= g2_1 with g1 - g0 a non-negative integer."""
    return range(g2_1 % 2, g2_1 + 1, 2)


def _shift_weight(table, n1: int, g2_1: int, genera=None) -> int:
    """Sum over g2_0 (default: all of _sub_genus(g2_1)) of
    C(n1+2-g2_0, n1-g2_1) 2^(2+g2_1-g2_0) table.value(n1, g2_0): the
    univariate charge-shift weight, zero when n1 < g2_1."""
    if n1 < g2_1:
        return 0
    value = table.value
    return sum(
        comb(n1 + 2 - g2_0, n1 - g2_1) * 2 ** (2 + g2_1 - g2_0) * value(n1, g2_0)
        for g2_0 in (_sub_genus(g2_1) if genera is None else genera)
    )


def row_series(order: int, step: int, coeff) -> TSeries:
    """Sum over n >= 1 of coeff(n) t^(step n), truncated at t^order."""
    return TSeries.truncated({step * n: coeff(n) for n in range(1, order // step + 1)},
                             order, min_order=min(step, order))
