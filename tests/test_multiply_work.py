"""Each product is computed once, and the tables stay what they were.

The digests pin `str` of every cell, in insertion order, so regrouping
the products of a recurrence cannot change a table.  The budgets count
`Poly.dot` term pairs, the schoolbook multiply work, so a change that
brings back a duplicated product fails here deterministically, without
timing anything.
"""

import hashlib

import pytest

from surfcount.bipartite import BipTable
from surfcount.identities import run_identity
from surfcount.maps import MapsTable
from surfcount.poly import Poly


def cells_digest(table):
    h = hashlib.sha256()
    for key, poly in table.entries.items():
        h.update(f"{key}: {poly}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("fill, digest", [
    (lambda: MapsTable("cc").fill(16),
     "fde9f83dff359fd885a1ae4a074be22cb413d9af6b0017997e4d0128121d18b2"),
    (lambda: MapsTable("kz").fill(16),
     "fde9f83dff359fd885a1ae4a074be22cb413d9af6b0017997e4d0128121d18b2"),
    (lambda: BipTable().fill(13),
     "85098c99628a7b9d86dbb5807dc9f42e5eb99bd9a61f10604a37e0fb4b02f1d4"),
], ids=["MapsTable-cc-16", "MapsTable-kz-16", "BipTable-13"])
def test_table_cells_are_pinned(fill, digest):
    assert cells_digest(fill()) == digest


@pytest.fixture
def term_pairs(monkeypatch):
    """Counts the term pairs every `Poly.dot` call multiplies."""
    count = [0]
    dot = Poly.dot.__func__

    def counted(cls, triples):
        triples = list(triples)
        count[0] += sum(len(a.terms) * len(b.terms) for c, a, b in triples
                        if c and a.terms and b.terms)
        return dot(cls, triples)

    monkeypatch.setattr(Poly, "dot", classmethod(counted))
    return count


@pytest.mark.parametrize("run, pairs", [
    (lambda: MapsTable("cc").fill(12), 19861),
    (lambda: MapsTable("kz").fill(12), 16416),
    (lambda: BipTable().fill(10), 14737),
    (lambda: run_identity("ode-bipartite", 8), 68087),
    (lambda: run_identity("ode-oneface-bipartite", 12), 8949),
], ids=["MapsTable-cc-12", "MapsTable-kz-12", "BipTable-10", "ode-bipartite-8",
        "ode-oneface-bipartite-12"])
def test_multiply_work_budget(term_pairs, run, pairs):
    run()
    assert term_pairs[0] == pairs
