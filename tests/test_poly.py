from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.errors import IntegralityError, NonDivisibleError
from surfcount.poly import ONE, P, S, Poly, U, V, Z, from_sp, to_sp

UZ = U * Z


def test_rational_coefficients_normalize():
    p = Poly.from_terms({(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 3)})
    assert p.coeff((1, 0, 0)) == Fraction(1, 2)
    assert p.coeff((0, 1, 0)) == Fraction(1, 3)
    assert (p + p).coeff((1, 0, 0)) == 1
    assert p.scale(6).is_integral()


def test_div_z():
    assert (UZ * Z).div_z() == UZ
    with pytest.raises(NonDivisibleError):
        (U + Z).div_z()


def test_pow_and_str():
    p = (U + Z) * (U + Z)
    assert p == U * U + 2 * UZ + Z * Z
    assert str(Poly.zero()) == "0"
    assert "u^2" in str(p)


def test_homogeneity_and_degree():
    p = UZ * (U + Z)
    assert p.is_homogeneous(3)
    assert not (p + ONE).is_homogeneous(3)


small_frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
exps = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
polys = st.dictionaries(exps, small_frac, max_size=5).map(Poly.from_terms)


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40)
@given(polys)
def test_sum_matches_repeated_add(p):
    assert Poly.sum([p, p, p]) == p + p + p
    assert p - p == Poly.zero()
    assert p.evaluate(1, 1, 1) == sum((c for _, c in p.items()), Fraction(0))


int_terms = st.dictionaries(exps, st.integers(min_value=-10**30, max_value=10**30), max_size=6)
points = st.tuples(small_frac, small_frac, small_frac)


@settings(max_examples=60)
@given(int_terms)
def test_from_terms_int_path(mapping):
    p = Poly.from_terms(mapping)
    assert p == Poly.from_terms({e: Fraction(c) for e, c in mapping.items()})
    assert dict(p.int_items()) == {e: c for e, c in mapping.items() if c}


def _moved(f, slot, point, delta):
    """f at point, with u and the variable of slot `slot` (if any) moved by delta."""
    moved = list(point)
    for i in (0,) if slot is None else (0, slot):
        moved[i] += delta
    return f.evaluate(*moved)


@settings(max_examples=80)
@given(polys, points, st.sampled_from([None, 1, 2]), st.integers(min_value=0, max_value=9))
def test_charge_shift_is_its_definition(f, point, slot, floor):
    delta = f.charge_shift(slot)
    literal = (_moved(f, slot, point, 2) + _moved(f, slot, point, -2)) / 2 - f.evaluate(*point)
    assert delta.evaluate(*point) == literal
    # a floor drops the terms of degree below it, and nothing else
    assert f.charge_shift(slot, floor) == Poly.from_terms(
        {exps: c for exps, c in delta.items() if sum(exps) >= floor})


def test_charge_shift_by_hand():
    # ((u+2)^4 + (u-2)^4)/2 - u^4 = 24u^2 + 16; z and v pass through
    assert (U * U * U * U * Z).charge_shift() == (24 * U * U + 16 * ONE) * Z
    # ((u+2)(z+2) + (u-2)(z-2))/2 - uz = 4, and v passes through
    assert (UZ * V).charge_shift(1) == 4 * V
    assert (UZ * V).charge_shift(2) == 4 * Z
    assert (UZ * V).charge_shift(1, floor=2).is_zero()
    assert (U + Z + ONE).charge_shift(1).is_zero()
    # (u+z)^4 is t^4 in t = u + z, which shifts by +-4: 96t^2 + 256
    uz4 = (U + Z) * (U + Z) * (U + Z) * (U + Z)
    assert uz4.charge_shift(1) == 96 * (U + Z) * (U + Z) + 256 * ONE
    assert (uz4 * V).charge_shift(1, floor=2) == 96 * (U + Z) * (U + Z) * V


@settings(max_examples=60)
@given(polys, points)
def test_evaluate_matches_general_formula(p, point):
    def formula(u, z, v):
        return sum((c * u**a * z**b * v**e for (a, b, e), c in p.items()), Fraction(0))
    assert p.evaluate() == formula(1, 1, 1)
    assert p.evaluate(*point) == formula(*point)


def test_int_items_rejects_rational_coefficients():
    with pytest.raises(IntegralityError):
        (U + Z.scale(Fraction(1, 2))).int_items()
    with pytest.raises(ValueError):
        Poly.from_terms({(0, -1, 0): 3})


def schoolbook(p, q):
    """Reference product: every pair of terms, in Fractions."""
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            key = (a + d, b + e, c + f)
            out[key] = out.get(key, Fraction(0)) + x * y
    return Poly.from_terms(out)


weights = st.one_of(st.integers(min_value=-5, max_value=5), small_frac)
triples = st.lists(st.tuples(weights, polys, polys), max_size=4)


@settings(max_examples=40)
@given(triples)
def test_dot_matches_sum_of_scaled_products(ts):
    # rational coefficients with mixed denominators, zero weights and zero
    # operands all come from the strategies above
    want = Poly.sum(schoolbook(a, b).scale(c) for c, a, b in ts)
    assert Poly.dot(ts) == want
    for _, a, b in ts:
        assert a * b == schoolbook(a, b)
    # full cancellation leaves the canonical zero
    gone = Poly.dot(ts + [(-c, a, b) for c, a, b in ts])
    assert gone.is_zero() and gone.den == 1 and gone == Poly.zero()


@settings(max_examples=40)
@given(st.lists(st.tuples(weights, polys), max_size=3), triples)
def test_dot_square_is_the_product_by_itself(squares, ts):
    # a triple whose factors are one object takes the square path, which
    # visits each unordered pair of terms once; beside other triples too
    want = Poly.sum([schoolbook(a, a).scale(c) for c, a in squares]
                    + [schoolbook(a, b).scale(c) for c, a, b in ts])
    assert Poly.dot([(c, a, a) for c, a in squares] + ts) == want


def test_dot_common_denominator():
    half, third = U.scale(Fraction(1, 2)), Z.scale(Fraction(1, 3))
    p = Poly.dot([(3, half, third), (Fraction(1, 4), U, U), (2, ONE, ONE)])
    assert p == UZ.scale(Fraction(1, 2)) + (U * U).scale(Fraction(1, 4)) + 2 * ONE
    assert p.den == 4
    assert Poly.dot([]) == Poly.zero()
    assert Poly.dot([(1, half, Poly.zero()), (0, U, U)]) == Poly.zero()


@pytest.mark.parametrize("k", [-6, -1, 0, 1, 2, 15])
def test_int_scale_matches_fraction_scale(k):
    # the int path skips the Fraction round trip and still reduces
    p = Poly.from_terms({(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(5, 3), (0, 0, 2): 2})
    for q in (p, UZ + ONE):
        got, want = q.scale(k), q.scale(Fraction(k))
        assert (got.terms, got.den) == (want.terms, want.den)


def test_v_to_u_sums_the_monomials_it_merges():
    # an overwriting substitution would keep one of the two u^3 terms
    assert (U * U * V + U * V * V).v_to_u() == 2 * U * U * U
    assert (U * V - V * U).v_to_u().is_zero()
    assert (3 * V * Z - U * Z).v_to_u() == 2 * U * Z
    assert Poly.zero().v_to_u().is_zero()


@settings(max_examples=60)
@given(polys, polys, points)
def test_v_to_u_is_a_ring_homomorphism(p, q, point):
    assert (p * q).v_to_u() == p.v_to_u() * q.v_to_u()
    assert (p + q).v_to_u() == p.v_to_u() + q.v_to_u()
    u, z, _ = point
    assert p.v_to_u().evaluate(u, z, 1) == p.evaluate(u, z, u)


def test_swap_uv():
    assert (U * U * V + 3 * V * Z).swap_uv() == U * V * V + 3 * U * Z
    assert (U * V - ONE).swap_uv() == U * V - ONE


def test_to_sp_by_hand():
    # s = u + v and p = uv sit in the u and v slots
    assert to_sp(U + V) == S and to_sp(U * V) == P
    assert to_sp(U * U + V * V) == S * S - 2 * P
    assert to_sp(U * U * U * U + V * V * V * V) == S * S * S * S - 4 * S * S * P + 2 * P * P
    assert to_sp((U * U * V + U * V * V) * Z + 3 * ONE) == S * P * Z + 3 * ONE


@pytest.mark.parametrize("f", [U, V, U * V * V, U * U + 2 * V * V, U + V + U * Z],
                         ids=["u", "v", "u-v2", "u2-2v2", "u-v-uz"])
def test_to_sp_rejects_asymmetric(f):
    with pytest.raises(ValueError):
        to_sp(f)


symmetric_polys = polys.map(lambda p: p + p.swap_uv())


@settings(max_examples=60)
@given(symmetric_polys, symmetric_polys)
def test_to_sp_is_an_exact_ring_map(p, q):
    assert from_sp(to_sp(p)) == p
    assert to_sp(p * q) == to_sp(p) * to_sp(q)
    assert to_sp(p + q) == to_sp(p) + to_sp(q)


@settings(max_examples=60)
@given(polys, points)
def test_from_sp_substitutes_s_and_p(f, point):
    u, z, v = point
    assert from_sp(f).evaluate(u, z, v) == f.evaluate(u + v, z, u * v)
