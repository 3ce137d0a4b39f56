"""Each product is computed once, and the tables stay what they were.

The digests pin `str` of every cell, in insertion order, so regrouping
the products of a recurrence cannot change a table.  The budgets count
`Poly.dot` term pairs, the schoolbook multiply work, and the calls of
one row fill, so a change that brings back a duplicated product or a
product per cell fails here deterministically, without timing anything.
"""

import hashlib

import pytest

from surfcount.bipartite import BipTable
from surfcount.identities import bipartite_context, maps_context, run_identity, verify_ode
from surfcount.maps import MapsCounts, MapsTable
from surfcount.poly import Poly
from surfcount.triangulations import TriTable


def cells_digest(table):
    h = hashlib.sha256()
    for key, poly in table.entries.items():
        h.update(f"{key}: {poly}\n".encode())
    return h.hexdigest()


PINNED = [
    (lambda: MapsTable("cc").fill(16),
     "fde9f83dff359fd885a1ae4a074be22cb413d9af6b0017997e4d0128121d18b2"),
    (lambda: MapsTable("kz").fill(16),
     "fde9f83dff359fd885a1ae4a074be22cb413d9af6b0017997e4d0128121d18b2"),
    # the bipartite stated zeros (1, 1) and (2, 2) are seeds, so cells
    (lambda: BipTable().fill(13),
     "86e951970747cfd6e5699da106caf5bb2ce3e5ee9d437c269205e9a4fd69be42"),
    (lambda: BipTable(v_is_u=True).fill(13),
     "9715d4a4d0d8238902433b6762031fe9ca46b245c17286b79d4a51e21cc6a0ff"),
]
PINNED_IDS = ["MapsTable-cc-16", "MapsTable-kz-16", "BipTable-13", "BipTable-v-is-u-13"]
# past the reference tables (n <= 16, 15 for triangulations) the anchors
# fix only the planar cell and the row sum of a scalar row, which a count
# moved between two genera above 0 keeps
SCALAR_PINNED = [
    (lambda: MapsCounts().fill(40),
     "bd6546804cc3ae2a59e1c3d4020b35fcb90c8d841257985dfe4c4d5bb7160305"),
    (lambda: MapsCounts().fill(40, 5),
     "00dba52a43cb83a31ea958e0992202c2e4c4e8845c712b9c9e4461f478072446"),
    (lambda: TriTable().fill(30),
     "5538111b6e5cf58af05cad2f161468464854c164504ecb913be426bd38c5a7fb"),
]
SCALAR_PINNED_IDS = ["MapsCounts-40", "MapsCounts-40-g-max-5", "TriTable-30"]


@pytest.mark.parametrize("fill, digest", PINNED + SCALAR_PINNED,
                         ids=PINNED_IDS + SCALAR_PINNED_IDS)
def test_table_cells_are_pinned(fill, digest):
    assert cells_digest(fill()) == digest


# A key below 2^30 is one CPython digit: adding and hashing keys, the
# multiply's per-pair work, costs one digit.  A layout that gives these
# polynomials multi-digit keys fails here, without timing anything.
SINGLE_DIGIT = 1 << 30


@pytest.mark.parametrize("fill", [fill for fill, _ in PINNED], ids=PINNED_IDS)
def test_table_keys_are_single_digit(fill):
    assert max(k for poly in fill().entries.values() for k in poly.terms) < SINGLE_DIGIT


@pytest.mark.parametrize("model, context, order", [("maps", maps_context, 24),
                                                   ("bipartite", bipartite_context, 12)],
                         ids=["ode-maps-24", "ode-bipartite-12"])
def test_memo_keys_are_single_digit(model, context, order):
    ctx = context(order)
    verify_ode(model, ctx)
    series = [ctx.theta] + [s for key, value in ctx.memo.items()
                            for s in (value if key == "__kp__" else (value,))]
    assert len(series) > 20
    assert max(k for s in series for poly in s.coeffs for k in poly.terms) < SINGLE_DIGIT


@pytest.fixture
def dot_work(monkeypatch):
    """Counts the term pairs every `Poly.dot` call multiplies, a square
    (both factors one object) over pairs i <= j, and the calls."""
    count = {"pairs": 0, "calls": 0}
    dot = Poly.dot.__func__

    def counted(cls, triples):
        triples = list(triples)
        count["calls"] += 1
        for c, a, b in triples:
            if c and a.terms and b.terms:
                n = len(a.terms)
                count["pairs"] += n * (n + 1) // 2 if a is b else n * len(b.terms)
        return dot(cls, triples)

    monkeypatch.setattr(Poly, "dot", classmethod(counted))
    return count


@pytest.mark.parametrize("run, pairs", [
    (lambda: MapsTable("cc").fill(12), 19791),
    (lambda: MapsTable("kz").fill(12), 16346),
    (lambda: BipTable().fill(10), 14653),
    # the F[lam] and KP products run in (s, z, p): 66978 pairs in (u, z, v);
    # `TSeries.dot` multiplies each product once, none again for a window;
    # each F[lam] computed to its full window and each ODE product to its
    # own took 35597 pairs, read caps and one dot per ODE sum take these
    (lambda: run_identity("ode-bipartite", 8), 27217),
    # 6292 pairs with each F[lam] to its full window
    (lambda: run_identity("ode-maps", 10), 5154),
    (lambda: run_identity("ode-oneface-bipartite", 12), 8949),
    # the table fill included; the shift-free residual written out term
    # by term (ten formal evaluations, fifteen products) took 35714 pairs,
    # and `TSeries.dot` multiplies each product once, none again for a
    # window; 21875 pairs with each F[lam] to its full window
    (lambda: run_identity("fixed-charge", 12), 20930),
    # a cut fill multiplies no part above the cap
    (lambda: MapsTable("cc").fill(12, 2), 10134),
    (lambda: MapsTable("kz").fill(12, 2), 8966),
    (lambda: BipTable().fill(10, 2), 11469),
    # at v = u a row has a term per (u, z) monomial, not per (u, v, z)
    # one: the trivariate fill(13) multiplies 81493 pairs
    (lambda: BipTable(v_is_u=True).fill(13), 14545),
], ids=["MapsTable-cc-12", "MapsTable-kz-12", "BipTable-10", "ode-bipartite-8",
        "ode-maps-10", "ode-oneface-bipartite-12", "fixed-charge-12", "MapsTable-cc-12-cut-2",
        "MapsTable-kz-12-cut-2", "BipTable-10-cut-2", "BipTable-v-is-u-13"])
def test_multiply_work_budget(dot_work, run, pairs):
    run()
    assert dot_work["pairs"] == pairs


def test_row_fill_calls(dot_work):
    # one core and one shift sum per row: the call overhead the row fill
    # removes comes back with any per-cell product
    MapsTable("cc").fill(12)
    assert dot_work["calls"] == 22
