from fractions import Fraction

import pytest

from surfcount.bipartite import (
    BipOneFaceTable,
    BipTable,
    bip_oneface,
    bip_row,
    bip_oneface_series,
    eta_series,
)
from surfcount.errors import MissingEntryError
from surfcount.poly import Poly, U, V, Z

UVZ = U * V * Z


@pytest.fixture(scope="module")
def bip8():
    return BipTable().fill(8)


def test_initial_conditions(bip8):
    assert bip8.poly(1, 0) == UVZ
    assert bip8.poly(2, 0) == UVZ * (U + V + Z)
    assert bip8.poly(1, 1).is_zero()   # no bipartite map on the projective plane with 1 edge
    assert bip8.poly(2, 2).is_zero()
    assert bip8.poly(2, 1) == UVZ


def test_published_counts(bip8):
    assert bip8.count(3, 0) == 12
    assert bip8.count(3, 1) == 9
    assert bip8.count(3, 2) == 4
    assert bip8.count(4, 3) == 20
    assert bip8.count(5, 4) == 148
    assert bip8.count(6, 5) == 1348
    assert bip8.count(8, 5) == 1445760
    assert bip8.count(8, 6) == 793260


def test_single_step_entry_point(bip8):
    for top in (5, 2):
        assert bip_row(5, top, bip8) == [bip8.poly(5, g2) for g2 in range(top + 1)]
    fresh = BipTable()
    with pytest.raises(MissingEntryError):
        fresh.poly(4, 0)


def test_black_white_symmetry_and_homogeneity(bip_16):
    # reversing the root edge swaps the colours u and v: the bipartite
    # identities compute in (s, z, p), s = u + v and p = uv, on this
    for (n, g2), p in bip_16.entries.items():
        assert p.is_homogeneous(n + 2 - g2)
        assert p.is_integral() and p.has_nonnegative_coeffs()
        swapped = Poly.from_terms({(q, k, i): c for (i, k, q), c in p.items()})
        assert swapped == p, f"u <-> v symmetry fails at {(n, g2)}"


# orders of the (u, z, v) exponents: u <-> v, the colours, and u <-> z
COLOURS, BLACK_FACES = (2, 1, 0), (1, 0, 2)


def asymmetric(entries, order) -> list:
    """The keys of the cells that change when their (u, z, v) exponents
    are read in the given order."""
    return [key for key, p in entries.items()
            if Poly.from_terms({tuple(e[i] for i in order): c for e, c in p.int_items()}) != p]


def test_triality(bip_16):
    # black vertices, white vertices and faces play the same part: with the
    # u <-> v symmetry above, u <-> z makes every cell symmetric under all
    # permutations of (u, v, z).  The recurrence is not visibly symmetric
    # in z (its shift moves u and v only), so this shares no formula with it
    assert len(bip_16.entries) == 152
    assert asymmetric(bip_16.entries, BLACK_FACES) == []
    # +1 on a u <-> v mirrored pair of one top-row coefficient with three
    # distinct exponents keeps the colour symmetry and breaks this one
    key, (i, k, q) = next(((n, g2), e) for (n, g2), p in bip_16.entries.items() if n == 16
                          for e, _ in p.int_items() if len({*e}) == 3)
    mutant = dict(bip_16.entries)
    mutant[key] += Poly.from_terms({(i, k, q): 1, (q, k, i): 1})
    assert asymmetric(mutant, COLOURS) == []
    assert asymmetric(mutant, BLACK_FACES) == [key]


def test_one_face_recursion_initials():
    t = BipOneFaceTable()
    assert t.value(3, 1, 1) == 4
    assert t.value(3, 2, 2) == 3
    assert t.value(3, 2, 1) == 3
    assert t.value(2, 1, 1) == 1
    assert t.value(3, 4, 1) == 0   # too many vertices for one face
    assert t.value(3, 0, 2) == 0


def test_one_face_matches_table_slice(bip8):
    # the one-face cells (n, i, j) are the z^1 coefficients of the rows
    one_face = {(n, i, j): c for (n, _), row in bip8.entries.items()
                for (i, k, j), c in row.int_items() if k == 1}
    assert BipOneFaceTable().fill(8).entries == one_face


def test_one_face_symmetry():
    one = BipOneFaceTable().fill(30)
    for (n, i, j), val in one.entries.items():
        assert val == one.value(n, j, i)


def test_one_face_single_step():
    # the step over rows 4..1, padded with zeros, is 6 times row 5
    one = BipOneFaceTable().fill(5)
    rows = [[[one.value(m, i, j) for j in range(10)] for i in range(10)] for m in (4, 3, 2, 1)]
    assert bip_oneface(5, *rows) == [6 * one.value(5, i, j) for i, j in one.row_cells(5)]


def test_eta_series(bip8):
    eta = eta_series(bip8, 6)
    assert eta.coeff(1) == UVZ.scale(Fraction(1, 2))
    expected3 = Poly.sum(bip8.poly(3, g2) for g2 in range(4)).scale(Fraction(1, 6))
    assert eta.coeff(3) == expected3


def test_bip_oneface_series():
    one = BipOneFaceTable().fill(4)
    s = bip_oneface_series(one, 4)
    assert s.coeff(1) == (U * V).scale(Fraction(1, 2))
    assert s.coeff(4).coeff((1, 0, 1)) == Fraction(20, 8)


@pytest.mark.parametrize("g2_max", [None, 2], ids=["uncut", "g-max-2"])
def test_v_is_u_table_is_the_trivariate_table_at_v_equals_u(bip_16, g2_max):
    # the substitution v -> u commutes with every step of the engine, the
    # charge-shift weights included (Vandermonde), so the table filled at
    # v = u is the trivariate table with v merged into u, cell for cell
    full = bip_16 if g2_max is None else BipTable().fill(16, g2_max)
    merged = BipTable(v_is_u=True).fill(16, g2_max)
    assert merged.entries.keys() == full.entries.keys()
    for (n, g2), poly in full.entries.items():
        assert merged.poly(n, g2) == poly.v_to_u(), (n, g2)
        assert not any(e[2] for e, _ in merged.poly(n, g2).int_items())
        assert merged.count(n, g2) == full.count(n, g2)
