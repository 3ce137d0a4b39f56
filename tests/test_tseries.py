from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.errors import WindowError
from surfcount.poly import ONE, Poly, U, Z
from surfcount.tseries import TSeries

UZ = U * Z


def trunc(mapping, max_order):
    return TSeries.truncated({k: Poly.const(v) if not isinstance(v, Poly) else v
                              for k, v in mapping.items()}, max_order)


def test_truncated_product():
    a = trunc({0: 1, 1: 1}, 5)   # 1 + t
    b = trunc({0: 1, 1: -1}, 5)  # 1 - t
    prod = a * b
    assert prod.coeff(0) == Poly.const(1)
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2) == Poly.const(-1)
    assert all(prod.coeff(k).is_zero() for k in range(3, prod.max_order + 1))
    assert prod.max_order == 5


def test_laurent_product():
    a = TSeries.truncated({-2: U}, 4, min_order=-2)
    b = TSeries.truncated({3: Z}, 8, min_order=3)
    prod = a * b
    assert prod.coeff(1) == UZ
    assert prod.min_order == 1


def test_window_is_pessimistic():
    a = trunc({1: 1}, 10)
    b = trunc({2: 1}, 4)
    assert (a + b).max_order == 4
    # product: known to min(10 + 2, 4 + 1) = 5
    assert (a * b).max_order == 5


def test_coeff_beyond_window_raises():
    a = trunc({0: 1}, 3)
    with pytest.raises(WindowError):
        a.coeff(4)
    assert a.coeff(-5).is_zero()


def test_dt_and_laurent_rule():
    a = trunc({2: UZ}, 6)
    d = a.dt()
    assert d.coeff(1) == 2 * UZ
    assert d.max_order == 5
    const = TSeries.const(7)
    assert const.dt().is_zero()
    inv = TSeries.truncated({-1: ONE}, 3, min_order=-1)
    dinv = inv.dt()
    assert dinv.coeff(-2) == -ONE


def test_t_dt_keeps_window():
    a = trunc({2: UZ, 3: U}, 6)
    assert a.t_dt().window == (2, 6)
    assert a.t_dt().coeff(3) == 3 * U
    assert a.t_dt() == a.dt().shift_t(1)


def test_exact_series_do_not_constrain():
    a = trunc({2: 1}, 6)
    c = TSeries.exact({0: ONE, 4: UZ})
    assert (a + c).max_order == 6
    # window of a product with an exact factor: a.max + valuation of the factor
    assert (a * c).max_order == 6
    assert (a * TSeries.exact({4: UZ})).max_order == 10


def test_shift_u_and_div_z():
    s = TSeries.exact({2: UZ * Z})
    assert s.div_z().coeff(2) == UZ
    # ((u+2) + (u-2))/2 - u = 0: the charge shift kills what is linear in u
    assert s.map(Poly.charge_shift).coeff(2).is_zero()
    assert TSeries.exact({2: UZ * U}).map(Poly.charge_shift).coeff(2) == 4 * Z


coefs = st.integers(min_value=-3, max_value=3)
series3 = st.lists(coefs, min_size=1, max_size=4).map(
    lambda cs: TSeries.truncated(
        {k: Poly.const(c) * (U if k % 2 else ONE) for k, c in enumerate(cs)}, 6
    )
)


@settings(max_examples=40)
@given(series3, series3, series3)
def test_series_ring_axioms(a, b, c):
    assert ((a + b) + c) == (a + (b + c))
    lhs = a * (b + c)
    rhs = a * b + a * c
    # windows may differ (cancellation can improve a valuation bound);
    # values must agree exactly on the common window
    top = min(lhs.max_order, rhs.max_order)
    for k in range(min(lhs.min_order, rhs.min_order), top + 1):
        assert lhs.coeff(k) == rhs.coeff(k)


@settings(max_examples=40)
@given(series3, series3)
def test_product_rule(a, b):
    lhs = (a * b).dt()
    rhs = a.dt() * b + a * b.dt()
    top = min(lhs.max_order, rhs.max_order)
    for k in range(min(lhs.min_order, rhs.min_order), top + 1):
        assert lhs.coeff(k) == rhs.coeff(k)


def old_product(a, b):
    """Reference product: the term-by-term series multiply `dot` replaced."""
    aval, bval = a.valuation(), b.valuation()
    if aval == float("inf") or bval == float("inf"):
        return TSeries.zero()
    bounds = [top + val for top, val in ((a.max_order, bval), (b.max_order, aval))
              if top is not None]
    out_max = min(bounds) if bounds else None
    acc = {}
    for ka, ca in a.enum_nonzero():
        for kb, cb in b.enum_nonzero():
            k = ka + kb
            if out_max is None or k <= out_max:
                acc[k] = acc.get(k, Poly.zero()) + ca * cb
    if out_max is None:
        return TSeries.exact(acc)
    return TSeries.truncated(acc, out_max, min_order=a.min_order + b.min_order)


def added_left_to_right(triples):
    if not triples:
        return TSeries.zero()
    products = [old_product(a, b).scale(c) for c, a, b in triples]
    acc = products[0]
    for p in products[1:]:
        acc = acc + p
    return acc


def same_series(got, want):
    assert (got.min_order, got.max_order) == (want.min_order, want.max_order)
    assert len(got.coeffs) == len(want.coeffs)
    assert all(x == y for x, y in zip(got.coeffs, want.coeffs))


small_poly = st.sampled_from([ONE, -ONE, U, 2 * Z, U - ONE, UZ])


@st.composite
def mixed_series(draw):
    kind = draw(st.sampled_from(["exact", "truncated", "zero", "truncated zero"]))
    lo = draw(st.integers(min_value=-2, max_value=3))
    if kind == "zero":
        return TSeries.zero()
    if kind == "truncated zero":
        return TSeries.truncated({}, lo + draw(st.integers(0, 3)), min_order=lo)
    cs = draw(st.lists(st.one_of(st.just(Poly.zero()), small_poly), min_size=1, max_size=4))
    mapping = {lo + i: p for i, p in enumerate(cs)}
    if kind == "exact":
        return TSeries.exact(mapping)
    return TSeries.truncated(mapping, lo + len(cs) - 1 + draw(st.integers(0, 2)), min_order=lo)


def follows_window_rule(got, triples):
    """dot's window rule: the coefficients and the bound of the products
    added up, and a bounded sum starts at the smallest product start over
    the products with no exact zero factor."""
    want = added_left_to_right(triples)
    assert got == want and got.max_order == want.max_order
    if got.max_order is not None:
        assert got.min_order == min(a.min_order + b.min_order for _, a, b in triples
                                    if not (a.max_order is None and a.is_zero()
                                            or b.max_order is None and b.is_zero()))


@settings(max_examples=150)
@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), mixed_series(),
                          mixed_series()), max_size=4))
def test_dot_matches_products_added_left_to_right(ts):
    follows_window_rule(TSeries.dot(ts), ts)
    for _, a, b in ts:
        follows_window_rule(a * b, [(1, a, b)])


def test_dot_window_after_exact_cancellation():
    # the exact products t^2 and t^5 - t^2 cancel at t^2, but their starts
    # still count: the window starts at t^2, below the bounded term's t^4
    e1 = TSeries.exact({2: ONE})
    e2 = TSeries.exact({2: -ONE, 5: ONE})
    t = TSeries.truncated({4: U}, 8, min_order=4)
    one = TSeries.const(1)
    ts = [(1, e1, one), (1, e2, one), (1, t, one)]
    got = TSeries.dot(ts)
    follows_window_rule(got, ts)
    assert got.window == (2, 8)


@settings(max_examples=150)
@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), mixed_series(),
                          mixed_series()), max_size=4),
       st.integers(min_value=-6, max_value=10))
def test_dot_read_to_top(ts, top):
    # the sum cut at the reader's top, never below its start; an exact sum
    # stays exact, and top=None is the whole window
    whole = TSeries.dot(ts)
    same_series(TSeries.dot(ts, None), whole)
    got = TSeries.dot(ts, top)
    if whole.max_order is None:
        same_series(got, whole)
        return
    assert got.min_order == whole.min_order <= got.max_order
    assert got.max_order == max(min(whole.max_order, top), whole.min_order)
    assert got.coeffs == whole.coeffs[:len(got.coeffs)]


def test_dot_top_below_the_start():
    # a top below every product's start leaves the one order at the start
    a = TSeries.truncated({2: U}, 6, min_order=2)
    got = TSeries.dot([(1, a, a), (2, a, TSeries.const(1))], 0)
    assert got.window == (2, 2) and got.coeff(2) == 2 * U


def distinct_copy(s):
    """An equal series that is a different object, so `dot` cannot see a square."""
    return TSeries(s.min_order, list(s.coeffs), s.max_order)


weights = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=6))


@settings(max_examples=150)
@given(weights, mixed_series(), st.lists(st.tuples(weights, mixed_series(), mixed_series()),
                                         max_size=2))
def test_square_matches_product_of_distinct_copies(c, a, others):
    # the square path pairs each two orders once at 2c; window, stored
    # leading zeros and every coefficient stay those of the plain product
    same_series(TSeries.dot([(c, a, a)]), TSeries.dot([(c, a, distinct_copy(a))]))
    mixed = others + [(c, a, a)] + others
    plain = others + [(c, a, distinct_copy(a))] + others
    same_series(TSeries.dot(mixed), TSeries.dot(plain))


@pytest.mark.parametrize("a", [
    TSeries.exact({0: ONE, 1: U, 3: 2 * Z}),
    trunc({0: 1, 1: 2, 2: -1, 5: 3}, 7),
    TSeries.truncated({}, 4, min_order=1),
    TSeries.zero(),
    TSeries.truncated({-2: U, 0: UZ, 1: -ONE}, 3, min_order=-3),
], ids=["exact", "truncated", "all-zero", "exact-zero", "laurent"])
@pytest.mark.parametrize("c", [1, -3, Fraction(1, 2), Fraction(-5, 6)], ids=str)
def test_square_cases(a, c):
    same_series(TSeries.dot([(c, a, a)]), TSeries.dot([(c, a, distinct_copy(a))]))
    same_series(a * a, a * distinct_copy(a))


def test_t_dt_with_shift():
    a = TSeries.truncated({-1: U, 2: UZ, 3: ONE}, 6, min_order=-2)
    got = a.t_dt(3)
    same_series(got, a.t_dt() - a.scale(3))
    assert got.coeff(3).is_zero() and got.coeff(2) == -UZ and got.coeff(-1) == -4 * U
