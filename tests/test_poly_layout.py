"""The packed key layout against a reference on exponent tuples.

Exponents are drawn up to the edge of the range: z and v in 0..EXP_MAX,
u up to 2000, past the single-digit keys.  Every operation is compared
with the same operation on {(e_u, e_z, e_v): Fraction} dicts, and each
one whose true result holds a z or v exponent above EXP_MAX must raise
ExponentRangeError instead of returning a result.
"""

import ast
from collections import defaultdict
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.errors import ExponentRangeError, IntegralityError, NonDivisibleError
from surfcount.poly import EXP_MAX, Poly, U, V, Z, from_sp, to_sp
from surfcount.table import below

split = Poly.parts_by_degree


def exponent(top):
    # near zero, near the top, or anywhere in between
    return st.one_of(st.integers(0, 3), st.integers(top - 3, top), st.integers(0, top))


monomials = st.tuples(exponent(2000), exponent(EXP_MAX), exponent(EXP_MAX))
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
terms = st.dictionaries(monomials, coeffs, max_size=4)
polys = terms.map(Poly.from_terms)


def ref(p: Poly) -> dict:
    return dict(p.items())


def nonzero(d) -> dict:
    return {e: c for e, c in d.items() if c}


def out_of_range(d) -> bool:
    return any(ez > EXP_MAX or ev > EXP_MAX for _, ez, ev in d)


def agrees(compute, want: dict):
    """compute() equals want, or raises ExponentRangeError when want holds
    an exponent out of range."""
    if out_of_range(nonzero(want)):
        with pytest.raises(ExponentRangeError):
            compute()
    else:
        assert ref(compute()) == nonzero(want)


def ref_dot(triples) -> dict:
    out = defaultdict(Fraction)
    for c, a, b in triples:
        for (au, az, av), x in ref(a).items():
            for (bu, bz, bv), y in ref(b).items():
                out[au + bu, az + bz, av + bv] += c * x * y
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(coeffs, polys, st.one_of(st.none(), polys)), min_size=1, max_size=3))
def test_dot_and_mul(raw):
    # None stands for a square: both factors one object
    triples = [(c, a, a if b is None else b) for c, a, b in raw]
    for c, a, b in triples:
        agrees(lambda: a * b, ref_dot([(1, a, b)]))
    # the largest z (and v) exponent of a product never cancels, so Poly.dot
    # raises exactly when one of its products reaches past the range
    if any(out_of_range(ref_dot([(1, a, b)])) for c, a, b in triples if c):
        with pytest.raises(ExponentRangeError):
            Poly.dot(triples)
    else:
        assert ref(Poly.dot(triples)) == nonzero(ref_dot(triples))


def test_dot_guard_at_the_edge():
    edge = Poly.from_terms({(0, EXP_MAX, EXP_MAX): 1})
    assert ref(edge * U) == {(1, EXP_MAX, EXP_MAX): 1}
    for p in (Z, V, edge):
        with pytest.raises(ExponentRangeError):
            edge * p
    # a square reaches 512 from 256, and u past 1024 is no fault
    half = Poly.from_terms({(2000, 256, 255): 1})
    with pytest.raises(ExponentRangeError):
        half * half
    low = Poly.from_terms({(2000, 255, 255): 1})
    assert ref(low * low) == {(4000, 510, 510): 1}


def ref_charge_shift(f: dict, slot, floor: int) -> dict:
    out = defaultdict(Fraction)
    for exps, c in f.items():
        p, q = exps[0], 0 if slot is None else exps[slot]
        for r in range(2, p + q + 1, 2):
            if sum(exps) - r < floor:
                break
            s = p + q - r
            for i in range(max(0, s - q), min(p, s) + 1):
                mono = list(exps)
                mono[0] = i
                if slot is not None:
                    mono[slot] = s - i
                out[tuple(mono)] += c * comb(p, i) * comb(q, s - i) * 2**r
    return out


@settings(max_examples=60, deadline=None)
@given(polys, st.sampled_from([None, 1, 2]), st.integers(0, 6))
def test_charge_shift(f, slot, drop):
    floor = max((sum(e) for e in ref(f)), default=0) - drop
    agrees(lambda: f.charge_shift(slot, floor), ref_charge_shift(ref(f), slot, floor))


@st.composite
def dense_parts(draw):
    """(Poly, slot): one or two full homogeneous parts in (u, w), w the
    slot's variable, over a shared pass-through exponent and a common
    denominator; numerators of mixed sign, zero among them."""
    slot, e = draw(st.sampled_from([1, 2])), draw(exponent(EXP_MAX))
    mapping = {}
    for d in draw(st.lists(st.integers(0, 30), min_size=1, max_size=2, unique=True)):
        for i in range(d + 1):
            exps = [i, 0, 0]
            exps[slot] = d - i
            exps[3 - slot] = e
            mapping[tuple(exps)] = draw(st.one_of(st.just(0), st.integers(-50, 50)))
    return Poly.from_terms(mapping, draw(st.integers(1, 9))), slot


@settings(max_examples=60, deadline=None)
@given(dense_parts(), st.integers(-1, 32))
def test_charge_shift_dense_parts(part, drop):
    # the two-slot shift runs its exact division down every entry of a
    # full part, to any floor
    f, slot = part
    floor = max((sum(e) for e in ref(f)), default=0) - drop
    agrees(lambda: f.charge_shift(slot, floor), ref_charge_shift(ref(f), slot, floor))


def ref_from_sp(f: dict) -> dict:
    out = defaultdict(Fraction)
    for (i, ez, j), c in f.items():
        for r in range(i + 1):
            out[r + j, ez, i - r + j] += c * comb(i, r)
    return out


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(exponent(40), exponent(EXP_MAX), exponent(EXP_MAX)), coeffs,
                       max_size=4).map(Poly.from_terms))
def test_from_sp(f):
    # s^i p^j expands to i + 1 terms, with v exponents up to i + j
    agrees(lambda: from_sp(f), ref_from_sp(ref(f)))


def mirrored(d: dict) -> Poly:
    """u^(b + gap) z^e v^b + u^b z^e v^(b + gap) for each (b, e, gap): c."""
    f = Poly.from_terms({(min(b, EXP_MAX - gap) + gap, ez, min(b, EXP_MAX - gap)): c
                         for (b, ez, gap), c in d.items()})
    return f + f.swap_uv()


# Waring's formula for a pair with gap d has d // 2 + 1 terms: small gaps
# keep the round trip quick while the exponents reach the edge
symmetric = st.dictionaries(st.tuples(exponent(EXP_MAX), exponent(EXP_MAX), st.integers(0, 12)),
                            coeffs, max_size=3).map(mirrored)


@settings(max_examples=60, deadline=None)
@given(symmetric)
def test_to_sp_round_trips(f):
    # from_sp is injective, so its reference pins to_sp
    assert nonzero(ref_from_sp(ref(to_sp(f)))) == ref(f)


def test_to_sp_rejects_a_u_exponent_with_no_mirror():
    # the mirror of u^1024 would be v^1024, which no key holds: without the
    # range check the swap arithmetic lands on z's key and passes
    with pytest.raises(ValueError, match="not symmetric"):
        to_sp(Poly.from_terms({(1024, 0, 0): 1, (0, 1, 0): 1}))


@settings(max_examples=60, deadline=None)
@given(polys)
def test_swap_uv_v_to_u_div_z(f):
    d = ref(f)
    agrees(f.swap_uv, {(ev, ez, eu): c for (eu, ez, ev), c in d.items()})
    merged = defaultdict(Fraction)
    for (eu, ez, ev), c in d.items():
        merged[eu + ev, ez, 0] += c
    agrees(f.v_to_u, merged)
    if all(ez for _, ez, _ in d):
        agrees(f.div_z, {(eu, ez - 1, ev): c for (eu, ez, ev), c in d.items()})
    else:
        with pytest.raises(NonDivisibleError):
            f.div_z()
    weights = [i % 7 + 1 for i in range(2001)]
    agrees(lambda: f.div_u(weights), {e: c / weights[e[0]] for e, c in d.items()})
    # parts from below the top degree leave the terms above it out
    top = max((sum(e) for e in d), default=0)
    assert [ref(p) for p in f.parts_by_degree(top - 1, 1)] == [
        {e: c for e, c in d.items() if sum(e) == top - 1 - g} for g in (0, 1)]
    # integer records in both index orders, (u, v, z) and, with v moved
    # into u, (u, z); sorted by exponents (u, z, v)
    ints = Poly.from_terms({e: c.numerator for e, c in d.items()})
    for order, p, indices in (("uvz", ints, lambda eu, ez, ev: (eu, ev, ez)),
                              ("uz", ints.v_to_u(), lambda eu, ez, ev: (eu, ez))):
        records = p.to_records(order)
        assert records == [(indices(*e), c) for e, c in sorted(ref(p).items())]
        assert Poly.from_records(order, dict(records)) == p


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 4), st.integers(0, 40), st.integers(0, 3000))
def test_split_and_below(f, extra, top, c):
    # split reads g2 as degree d minus a term's degree; below keeps the
    # terms of degree m + 2 - c and up
    d = ref(f)
    degree = max((sum(e) for e in d), default=0) + extra
    want = [{e: x for e, x in d.items() if degree - sum(e) == g2} for g2 in range(top + 1)]
    assert [ref(p) for p in split(f, degree, top)] == want
    m = degree - 2
    assert ref(below(f, m, c)) == (d if c >= m else
                                   {e: x for e, x in d.items() if sum(e) >= m + 2 - c})


@pytest.mark.parametrize("exps", [(0, EXP_MAX + 1, 0), (0, 0, EXP_MAX + 1), (5, 1024, 0)])
def test_packing_checks_its_arguments(exps):
    with pytest.raises(ExponentRangeError):
        Poly.from_terms({exps: 1})
    with pytest.raises(ExponentRangeError):
        U.coeff(exps)
    eu, ez, ev = exps
    with pytest.raises(ExponentRangeError):
        Poly.from_records("uvz", {(eu, ev, ez): 1})
    with pytest.raises(ExponentRangeError):
        Poly.from_records("uz", {(eu, max(ez, ev)): 1})
    edge = Poly.from_terms({(5000, EXP_MAX, EXP_MAX): 1})
    assert edge.coeff((5000, EXP_MAX, EXP_MAX)) == 1
    assert Poly.from_records("uvz", dict(edge.to_records("uvz"))) == edge
    assert Poly.from_records("uz", {(5000, EXP_MAX): 1}).to_records("uz") == [((5000, EXP_MAX), 1)]
    with pytest.raises(IntegralityError):
        edge.scale(Fraction(1, 2)).to_records("uvz")


def test_no_module_but_poly_imports_its_private_names():
    # the packed key layout is poly's alone: nothing else imports a
    # _-prefixed name from it
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly"
                    and any(alias.name.startswith("_") for alias in node.names)):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []
