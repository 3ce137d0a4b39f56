from fractions import Fraction

import pytest

from surfcount.identities import ftheta, maps_context
from surfcount.oracle import (
    MAX_EDGES,
    fixed_point_free_involutions,
    marked_face_coefficient,
    oracle_count,
    oracle_count_bipartite,
    oracle_genus_totals,
    scan,
)


def test_involution_count():
    assert sum(1 for _ in fixed_point_free_involutions(list(range(8)))) == 105  # 7!!


def test_one_edge_maps():
    assert oracle_count(1) == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
    assert oracle_genus_totals(1) == {0: 2, 1: 1}


def test_two_edge_maps_and_bipartite():
    assert oracle_genus_totals(2) == {0: 9, 1: 10, 2: 5}
    split = oracle_count(2)
    # planar row is uz(2u^2 + 5uz + 2z^2); duality symmetric
    assert split[(3, 1)] == 2 and split[(2, 2)] == 5 and split[(1, 3)] == 2
    assert all(split[(v, f)] == split[(f, v)] for (v, f) in split)
    bip = oracle_count_bipartite(2)
    assert bip == {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 1, 1): 1}


def test_one_edge_bipartite():
    assert oracle_count_bipartite(1) == {(1, 1, 1): 1}


def test_guard():
    with pytest.raises(ValueError):
        scan(MAX_EDGES + 1)
    with pytest.raises(ValueError):
        oracle_count(2, "triangulation")


def test_euler_relation_holds(oracle2):
    for (v, f) in oracle2["maps"]:
        assert 2 - v + 2 - f >= 0


def test_marked_face_coefficients_two_edges(oracle2):
    prof = oracle2["profiles"]
    # faces of degree (2,1) marked in order: only the two one-vertex,
    # three-face planar maps qualify, each with two ordered markings
    assert marked_face_coefficient(prof, 2, (2, 1)) == {(1, 1): Fraction(1, 2)}
    # a single marked degree-2 face at one edge would live at order t^2
    assert marked_face_coefficient(prof, 2, (6,)) == {}


@pytest.mark.slow
def test_four_edge_ground_truth(maps_cc_12, bip_16):
    result = scan(4)
    expected_maps = {}
    for g2 in range(5):
        for (i, j, _), c in maps_cc_12.poly(4, g2).items():
            expected_maps[(i, j)] = int(c)
    assert result["maps"] == expected_maps
    expected_bip = {}
    for g2 in range(5):
        for (i, k, j), c in bip_16.poly(4, g2).items():
            expected_bip[(i, j, k)] = expected_bip.get((i, j, k), 0) + int(c)
    assert result["bipartite"] == expected_bip
    ctx = maps_context(10, maps_cc_12)
    for lam in [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 1),
                (3, 2), (5, 1), (1, 1, 1), (2, 1, 1), (3, 3), (4, 2), (6, 1),
                (7, 1), (5, 3), (2, 2, 2)]:
        got = {(i, j): c for (i, j, _), c in ftheta(ctx, lam).coeff(8).items()}
        assert got == marked_face_coefficient(result["profiles"], 4, lam), lam
