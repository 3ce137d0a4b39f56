"""Ledoux's one-face recurrence and its bipartite analogue, derived from
the one-face ODEs by `identities.oneface_relation`: a linear relation
among the coefficients f_j = C_j / (2j) of the series, where C_j is a
row of the table as a polynomial:

- one-face maps: j = 2n and C_j = sum over g2 of u[n, g2] u^(n+1-g2)
  (Ledoux, "A recursion formula for the moments of the Gaussian
  orthogonal ensemble", 2009);
- one-face bipartite maps: j = n and C_j = sum of b[n, i, j'] u^i v^j'.

The tests compare it with the hand-written steps `ledoux` and
`bip_oneface`, coefficient by coefficient, check that the ODE fill run
from rows 1..3 rebuilds the tables, and that the residual regrouped by
relation equals the sum of the operator terms.  Both tables are also
pinned by digests of their cells (their row sums are in test_anchors).
"""

import hashlib
from fractions import Fraction

import pytest

from surfcount.bipartite import BipOneFaceTable, bip_oneface, bip_oneface_series
from surfcount.errors import IntegralityError
from surfcount.identities import (
    _ONEFACE_ODE, _oneface_step, oneface_ode_fill, oneface_relation, verify_oneface_ode,
)
from surfcount.maps import OneFaceTable, ledoux, oneface_series
from surfcount.poly import ONE, U
from surfcount.tseries import TSeries


def _one_hot(n, cell):
    """Rows n-1..n-4 as the one-face steps read them, zero-padded to n + 5
    in each direction, all zero but for a 1 at cell = (m, *index); an
    index below 0 lands in the padding, which is where a step reads it."""
    m, *index = cell
    width = n + 5
    rows = [[0] * width if len(index) == 1 else [[0] * width for _ in range(width)]
            for _ in range(4)]
    target = rows[n - m - 1]
    for k in index[:-1]:
        target = target[k]
    target[index[-1]] = 1
    return rows


def _derived_coefficients(model: str, top: int, n: int, cell_of):
    """{history cell: coefficient} of the row recurrence (n+1) cell = sum
    coefficient * history cell, read off the ODE: C_top = -(top / lead)
    sum_j P_j C_j / j.  cell_of(j, exps) names the history cell a
    monomial of P_j multiplies."""
    lead, terms, inhom = _oneface_step(model, oneface_relation(model), top)
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
            c = ledoux(n, *_one_hot(n, cell))[g2]
            if c:
                hand[cell] = c
    assert derived == hand


@pytest.mark.parametrize("n", range(4, 21))
def test_bip_oneface_is_the_derived_recurrence(n):
    # row n of b is the series coefficient j = n; u^p v^q of P_j moves a
    # cell of row j from (i - p, j' - q) to (i, j'), a cell of row n
    i = jj = min(6, (n + 1) // 2)
    place = list(BipOneFaceTable.row_cells(n)).index((i, jj))
    derived = _derived_coefficients(
        "bip-oneface", n, n, lambda j, exps: (j, i - exps[0], jj - exps[2]))
    hand = {}
    for r in range(1, 5):
        for p in range(-1, 6):
            for q in range(-1, 6):
                cell = (n - r, i - p, jj - q)
                c = bip_oneface(n, *_one_hot(n, cell))[place]
                if c:
                    hand[cell] = c
    assert derived == hand


@pytest.mark.parametrize("model, table, rows", [
    ("oneface", OneFaceTable, 40), ("bip-oneface", BipOneFaceTable, 30),
], ids=["oneface", "bip-oneface"])
def test_derived_recurrence_fills_the_table(model, table, rows):
    assert oneface_ode_fill(model, rows).entries == table().fill(rows).entries


@pytest.mark.parametrize("table, rows, digest", [
    (OneFaceTable, 60, "5baa1101756a58a7fb647ec1fb0340d0533282cdc9c48d825e0027c62b77e5f2"),
    (BipOneFaceTable, 30, "c1c69a2e04fe30f8b00d060b1ba3d5e296c693d5e5f2e144a37ec2577f745095"),
], ids=["oneface", "bip-oneface"])
def test_oneface_tables_are_pinned(table, rows, digest):
    # sha256 of the sorted cells, as the former cell-by-cell sweep gave them
    cells = sorted(table().fill(rows).entries.items())
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == digest


def test_ode_fill_raises_on_a_wrong_seed_or_a_zero_lead(monkeypatch):
    monkeypatch.setattr(OneFaceTable, "SEEDS", {**OneFaceTable.SEEDS, (3, 3): 42})
    with pytest.raises(IntegralityError, match=r"oneface\[5\]: .* not divisible by 120"):
        oneface_ode_fill("oneface", 6)
    # -7 f' + t f'' = 0: the coefficient of f_8 at t^7 is -7 * 8 + 8 * 7 = 0
    monkeypatch.setitem(_ONEFACE_ODE, "oneface", ({1: {0: -7 * ONE}, 2: {1: ONE}}, {}))
    with pytest.raises(IntegralityError, match="leading coefficient 0"):
        oneface_ode_fill("oneface", 4)


@pytest.mark.parametrize("model, table, seed, drop, message", [
    ("oneface", OneFaceTable, (3, 0), 3, r"oneface\[4,0\] = -4"),
    ("bip-oneface", BipOneFaceTable, (3, 3, 1), 1, r"bip-oneface\[4,4,1\] = -2"),
], ids=["oneface", "bip-oneface"])
def test_ode_fill_checks_each_sign(monkeypatch, model, table, seed, drop, message):
    # a lowered seed gives an integral row 4 with one negative cell
    monkeypatch.setitem(table.SEEDS, seed, table.SEEDS[seed] - drop)
    with pytest.raises(IntegralityError, match=rf"^{message} is negative$"):
        oneface_ode_fill(model, 5)


def _residual_by_terms(model, series):
    """The residual as one product per operator term c t^a f^(k)."""
    rows, inhom = _ONEFACE_ODE[model]
    d = [series]
    for _ in range(max(rows)):
        d.append(d[-1].dt())
    return TSeries.zero() + TSeries.dot(
        [(1, TSeries.exact(rows[k]), d[k]) for k in sorted(rows)]
        + [(1, TSeries.const(1), TSeries.exact(inhom))])


def _report(res):
    first = res.first_nonzero()
    return res.min_order, res.max_order, res.coeffs, first and (first[0], str(first[1]))


@pytest.mark.parametrize("model, table, series, top", [
    ("oneface", OneFaceTable().fill, oneface_series, 30),
    ("bip-oneface", BipOneFaceTable().fill, bip_oneface_series, 20),
], ids=["oneface", "bip-oneface"])
def test_residual_is_the_sum_of_the_operator_terms(model, table, series, top):
    # at the orders run_identity checks, on the true series and with one
    # coefficient off by an int or by a rational
    table = table(top + 2)
    for order in range(1, top + 1):
        true = series(table, order + 2)
        for s in (true, true + TSeries.exact({true.max_order: ONE}),
                  true + TSeries.exact({true.min_order: U.scale(Fraction(1, 3))})):
            got = _report(verify_oneface_ode(model, s))
            assert got == _report(_residual_by_terms(model, s))
            assert (got[3] is None) == (s is true)
