"""Ledoux's one-face recurrence and its bipartite analogue, derived from
the one-face ODEs.

`identities._ONEFACE_ODE` writes each linear one-face ODE as operator
data: the coefficient c of each term c t^a f^(k), plus an inhomogeneous
part.  The t^m coefficient of t^a f^(k) is (m-a+k)_k f_(m-a+k), with
(x)_k the falling factorial, so the t^m coefficient of an ODE is a linear
relation among the coefficients f_j of the series, with coefficients
polynomial in m.  Both series have f_j = C_j / (2j), where C_j is a row
of the table as a polynomial:

- one-face maps: j = 2n and C_j = sum over g2 of u[n, g2] u^(n+1-g2)
  (Ledoux, "A recursion formula for the moments of the Gaussian
  orthogonal ensemble", 2009);
- one-face bipartite maps: j = n and C_j = sum of b[n, i, j'] u^i v^j'.

So each relation is a recurrence on the rows.  The tests compare it
with the hand-written steps `ledoux` and `bip_oneface`, coefficient by
coefficient, and run it from rows 1..3 to the tables.  Everything is
exact Poly and Fraction arithmetic.
"""

from math import prod
from types import SimpleNamespace

import pytest

from surfcount.bipartite import BipOneFaceTable, bip_oneface, bip_oneface_series
from surfcount.identities import _ONEFACE_ODE
from surfcount.maps import OneFaceTable, ledoux, oneface_series
from surfcount.poly import ZERO, Poly


def _relation(model: str, m: int):
    """The t^m coefficient of the model's ODE as ({j: P_j}, inhom), meaning
    sum_j P_j f_j + inhom."""
    rows, inhom = _ONEFACE_ODE[model]
    terms = {}
    for k, row in rows.items():
        for a, c in row.items():
            j = m - a + k
            terms[j] = terms.get(j, ZERO) + c.scale(prod(range(j - k + 1, j + 1)))
    return terms, inhom.get(m, ZERO)


def _step(model: str, top: int):
    """The relation that solves for f_top: (lead, {j: P_j} with j < top,
    inhom), where lead, the coefficient of f_top, is a nonzero constant."""
    rows, _ = _ONEFACE_ODE[model]
    lag = min(a - k for k, row in rows.items() for a in row)
    terms, inhom = _relation(model, top + lag)
    lead = terms.pop(top)
    assert max(terms) < top
    assert lead.is_homogeneous(0) and not lead.is_zero(), lead
    return lead.evaluate(), terms, inhom


def _fill_from_ode(model: str, seeds, top: int) -> dict:
    """f_1 .. f_top from the seed series' coefficients and the relations."""
    f = {j: seeds.coeff(j) for j in range(1, seeds.max_order + 1)}
    for top_j in range(seeds.max_order + 1, top + 1):
        lead, terms, inhom = _step(model, top_j)
        rhs = Poly.sum([p * f[j] for j, p in terms.items() if j >= 1]) + inhom
        f[top_j] = rhs.scale(-1 / lead)
    return f


def _only(cell, value):
    """A stand-in table whose one nonzero cell holds value."""
    return SimpleNamespace(value=lambda *c: value if c == cell else 0)


def _derived_coefficients(model: str, top: int, n: int, cell_of):
    """{history cell: coefficient} of the row recurrence (n+1) cell = sum
    coefficient * history cell, read off the ODE: C_top = -(top / lead)
    sum_j P_j C_j / j.  cell_of(j, exps) names the history cell a
    monomial of P_j multiplies."""
    lead, terms, inhom = _step(model, top)
    assert inhom.is_zero()
    out = {}
    for j, p in terms.items():
        if j < 1:   # the series have no t^0 term
            continue
        for exps, c in p.items():
            out[cell_of(j, exps)] = -(n + 1) * top * c / (j * lead)
    return out


@pytest.mark.parametrize("n", range(5, 21))
def test_ledoux_is_the_derived_recurrence(n):
    # row n of u is the series coefficient j = 2n; u^e of P_j moves a cell
    # of row j/2 = n - r from genus g2 + e - r to g2.  Below n = 5 the
    # hand-written step reads the seed u[0, 0] = 1 in place of the
    # inhomogeneous part
    g2 = 4
    derived = _derived_coefficients(
        "oneface", 2 * n, n, lambda j, exps: (j // 2, g2 + exps[0] - n + j // 2))
    hand = {}
    for r in range(1, 5):
        for e in range(-1, 6):
            cell = (n - r, g2 + e - r)
            c = ledoux(n, g2, _only(cell, n + 1))
            if c:
                hand[cell] = c
    assert derived == hand


@pytest.mark.parametrize("n", range(4, 21))
def test_bip_oneface_is_the_derived_recurrence(n):
    # row n of b is the series coefficient j = n; u^p v^q of P_j moves a
    # cell of row j from (i - p, j' - q) to (i, j')
    i = jj = 6
    derived = _derived_coefficients(
        "bip-oneface", n, n, lambda j, exps: (j, i - exps[0], jj - exps[2]))
    hand = {}
    for r in range(1, 5):
        for p in range(-1, 6):
            for q in range(-1, 6):
                cell = (n - r, i - p, jj - q)
                c = bip_oneface(n, i, jj, _only(cell, n + 1))
                if c:
                    hand[cell] = c
    assert derived == hand


@pytest.mark.parametrize("model, series, table, rows", [
    ("oneface", oneface_series, OneFaceTable, 40),
    ("bip-oneface", bip_oneface_series, BipOneFaceTable, 20),
], ids=["oneface", "bip-oneface"])
def test_derived_recurrence_fills_the_table(model, series, table, rows):
    step = 2 if model == "oneface" else 1   # t-orders per row
    seeds = series(table(), 3 * step)        # the seeded rows 1..3
    want = series(table().fill(rows), rows * step)
    got = _fill_from_ode(model, seeds, rows * step)
    assert [got[j] for j in range(1, rows * step + 1)] == \
        [want.coeff(j) for j in range(1, rows * step + 1)]
