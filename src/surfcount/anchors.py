"""Closed forms that anchor the count tables and share no code with their recurrences.

`planar(model, n)` is the g = 0 count of row n, and `total(model, n)` the
count of row n summed over the genus, for n >= 1 and the five tables
`maps`, `bipartite`, `triangulations` (n is half the face count),
`oneface` and `bip-oneface`: ints, computed in ints and Fractions only.
A planar count fixes one cell of a row, a total the row's sum.

Planar: Tutte (1963) for maps, its bipartite analogue, OEIS A002005 for
triangulations, and Catalan numbers (plane trees) for both one-face
tables.  Totals: A, the exponential generating function of every gluing,
connected or not, and log A that of the connected ones (the exponential
formula, Flajolet and Sedgewick, Analytic Combinatorics II.2), computed
exactly; a one-face map glues the sides of a 2n-gon in pairs, each
straight or twisted, (2n-1)!! 2^n, and a bipartite one, whose colours
alternate round the polygon, glues each pair one way only, (2n-1)!!.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .errors import IntegralityError

MODELS = ("maps", "bipartite", "triangulations", "oneface", "bip-oneface")


def _double_factorial(m: int) -> int:
    """m (m-2) (m-4) ... down to 1 or 2; 1 for m <= 0."""
    return prod(range(m, 0, -2))


_PLANAR = {
    "maps": lambda n: 2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2)),
    "bipartite": lambda n: 3 * 2 ** (n - 1) * factorial(2 * n) // (factorial(n) * factorial(n + 2)),
    "triangulations": lambda n: (2 ** (2 * n + 1) * _double_factorial(3 * n)
                                 // (factorial(n + 2) * _double_factorial(n))),
    "oneface": lambda n: comb(2 * n, n) // (n + 1),
    "bip-oneface": lambda n: comb(2 * n, n) // (n + 1),
}

# the coefficient a_m of x^m (triangulations: y^m) in A, by model
_EGF = {
    "maps": cache(lambda m: Fraction(_double_factorial(4 * m - 1), factorial(m))),
    "bipartite": cache(lambda m: Fraction(_double_factorial(2 * m - 1) ** 2, factorial(m))),
    "triangulations": cache(lambda m: Fraction(
        _double_factorial(3 * m - 1) * 2 ** (3 * m // 2), factorial(m) * 6**m) if m % 2 == 0
        else Fraction(0)),
}


@cache
def _log(model: str, m: int) -> Fraction:
    """c_m of log A, m >= 1, by m c_m = m a_m - sum over 0 < k < m of k c_k
    a_(m-k).  The sum starts at Fraction(0): an empty int sum over m would
    be a float."""
    a = _EGF[model]
    return a(m) - sum((k * _log(model, k) * a(m - k) for k in range(1, m)), Fraction(0)) / m


_TOTAL = {
    "maps": lambda n: 4 * n * _log("maps", n) / 4**n,
    "bipartite": lambda n: n * _log("bipartite", n) / 2 ** (n - 1),
    "triangulations": lambda n: 12 * n * _log("triangulations", 2 * n),
    "oneface": lambda n: _double_factorial(2 * n - 1) << n,
    "bip-oneface": lambda n: _double_factorial(2 * n - 1),
}


def _model(model: str, n: int) -> str:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; know {', '.join(MODELS)}")
    if n < 1:
        raise ValueError(f"{model}: row {n}: the anchors start at row 1")
    return model


def planar(model: str, n: int) -> int:
    """The g = 0 count of row n of model's table."""
    return _PLANAR[_model(model, n)](n)


def total(model: str, n: int) -> int:
    """The count of row n of model's table, summed over the genus."""
    value = Fraction(_TOTAL[_model(model, n)](n))
    if value.denominator != 1:
        raise IntegralityError(f"{model}: row {n} total {value} is not an integer")
    return value.numerator
