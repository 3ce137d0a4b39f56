import hashlib
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from surfcount.anchors import total
from surfcount.bipartite import BipTable
from surfcount.cli import main
from surfcount.identities import ftheta, maps_context
from surfcount.maps import MapsCounts
from surfcount.oracle import MAX_EDGES, marked_face_coefficient, scan


def genus_totals(n: int) -> dict:
    """Map counts folded to {g2: count} via Euler's relation."""
    out: dict[int, int] = {}
    for (v, f), c in scan(n)["maps"].items():
        g2 = 2 - v + n - f
        out[g2] = out.get(g2, 0) + c
    return out


def fingerprint(result: dict) -> str:
    return hashlib.sha256(
        repr([(k, sorted(result[k].items())) for k in sorted(result)]).encode()
    ).hexdigest()


def test_leaf_counts_match_maps_counts(oracle4):
    # one leaf per rooted map: the totals are the row sums of the counts
    for n in range(1, 5):
        result = oracle4 if n == 4 else scan(n)
        assert sum(result["maps"].values()) == total("maps", n)


@pytest.mark.parametrize("n, digest", [
    (3, "552402d4c84cc2a0b232aa4dd195205cac5522b9259deb69a95d34eac7da3aec"),
    (4, "7ab214952372b91ffd5ba5a099f36b04f4137ca918ddea5bb6415206233650c0"),
    (5, "92b44420708dd1673d4dd80cb5501c3517e819c59217a581a0cc73bc53673967"),
    pytest.param(6, "95c398296e59a76a2f768a92fe47d71aad28a182bc716b109f468bfdeaf72267",
                 marks=pytest.mark.slow),
])
def test_scan_is_pinned(n, digest, request):
    # all four tallies: n <= 4 as the former (4n-1)!!-involution scan
    # returned them, n = 5, 6 as the orbit-walking generator did
    assert fingerprint(request.getfixturevalue(f"oracle{n}")) == digest


@pytest.mark.parametrize("n, calls", [(3, 449), (4, 7269)])
def test_scan_work_is_pinned(n, calls):
    # the forced last pairing is tallied in place and dead branches are
    # not entered; a scan that makes a call per leaf and per dead branch
    # makes 773 and 12489 calls, and fails here without timing anything
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name == "grow":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        scan(n)
    finally:
        sys.setprofile(previous)
    assert count == calls


def test_one_edge_maps():
    assert scan(1)["maps"] == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
    assert genus_totals(1) == {0: 2, 1: 1}


def test_two_edge_maps_and_bipartite():
    assert genus_totals(2) == {0: 9, 1: 10, 2: 5}
    split = scan(2)["maps"]
    # planar row is uz(2u^2 + 5uz + 2z^2); duality symmetric
    assert split[(3, 1)] == 2 and split[(2, 2)] == 5 and split[(1, 3)] == 2
    assert all(split[(v, f)] == split[(f, v)] for (v, f) in split)
    bip = scan(2)["bipartite"]
    assert bip == {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 1, 1): 1}


def test_one_edge_bipartite():
    assert scan(1)["bipartite"] == {(1, 1, 1): 1}


def test_guard():
    with pytest.raises(ValueError):
        scan(MAX_EDGES + 1)


def test_filter_checked_before_scan(monkeypatch):
    # the CLI rejects a triangulation filter on an edge count not
    # divisible by 3 before it scans
    def no_scan(n):
        raise AssertionError("scan ran before the filter was checked")

    monkeypatch.setattr("surfcount.cli.scan", no_scan)
    res = CliRunner().invoke(main, ["oracle", "--edges", "5", "--filter", "triangulation"])
    assert res.exit_code == 2
    assert "divisible by 3" in res.stderr


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


def _maps_split(table, n):
    out = {}
    for g2 in range(n + 1):
        for (i, j, _), c in table.poly(n, g2).items():
            out[(i, j)] = int(c)
    return out


def _bip_split(table, n):
    out = {}
    for g2 in range(n + 1):
        for (i, k, j), c in table.poly(n, g2).items():
            out[(i, j, k)] = out.get((i, j, k), 0) + int(c)
    return out


def test_four_edge_ground_truth(oracle4, maps_cc_12, bip_16):
    assert oracle4["maps"] == _maps_split(maps_cc_12, 4)
    assert oracle4["bipartite"] == _bip_split(bip_16, 4)
    ctx = maps_context(10, maps_cc_12)
    for lam in [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 1),
                (3, 2), (5, 1), (1, 1, 1), (2, 1, 1), (3, 3), (4, 2), (6, 1),
                (7, 1), (5, 3), (2, 2, 2)]:
        got = {(i, j): c for (i, j, _), c in ftheta(ctx, lam).coeff(8).items()}
        assert got == marked_face_coefficient(oracle4["profiles"], 4, lam), lam


def test_five_edge_ground_truth(oracle5, maps_cc_12):
    assert sum(oracle5["maps"].values()) == 100278
    assert oracle5["maps"] == _maps_split(maps_cc_12, 5)
    assert oracle5["bipartite"] == _bip_split(BipTable().fill(5), 5)
    ctx = maps_context(12, maps_cc_12)
    for lam in [(1,), (5,), (2, 1), (3, 3), (4, 1, 1), (2, 2, 2), (9, 1),
                (3, 2, 1, 1)]:
        got = {(i, j): c for (i, j, _), c in ftheta(ctx, lam).coeff(10).items()}
        assert got == marked_face_coefficient(oracle5["profiles"], 5, lam), lam


@pytest.mark.slow
def test_six_edge_ground_truth(oracle6, maps_cc_12, bip_16, tri_15):
    counts = MapsCounts().fill(6, 6)
    assert sum(oracle6["maps"].values()) == 2450304
    assert 2450304 == sum(counts.value(6, g2) for g2 in range(7))
    assert oracle6["maps"] == _maps_split(maps_cc_12, 6)
    assert oracle6["bipartite"] == _bip_split(bip_16, 6)
    # 4 triangles glued into 6 edges: row 2 of the triangulation table
    assert oracle6["triangulations"] == {0: 32, 1: 118, 2: 202, 3: 128}
    assert oracle6["triangulations"] == {g2: tri_15.value(2, g2) for g2 in range(4)}
    ctx = maps_context(14, maps_cc_12)
    for lam in [(1,), (6,), (2, 1), (3, 3), (4, 1, 1), (2, 2, 2), (9, 1),
                (3, 2, 1, 1)]:
        got = {(i, j): c for (i, j, _), c in ftheta(ctx, lam).coeff(12).items()}
        assert got == marked_face_coefficient(oracle6["profiles"], 6, lam), lam
