"""The closed forms of `surfcount.anchors` against the five tables: the
planar cell and the genus sum of every row."""

from collections import Counter, defaultdict

import pytest

from surfcount.anchors import MODELS, planar, total
from surfcount.bipartite import BipOneFaceTable, BipTable
from surfcount.maps import MapsCounts, OneFaceTable
from surfcount.triangulations import TriTable

# model: the cells ((n, g2), count) of its table filled to n_max, cut at g2_max
_CELLS = {
    "maps": lambda n_max, g2_max: MapsCounts().fill(n_max, g2_max).entries.items(),
    # the scalar bipartite counts: the table at v = u, at all ones
    "bipartite": lambda n_max, g2_max: [
        (cell, row.evaluate()) for cell, row in BipTable(v_is_u=True).fill(n_max, g2_max).entries.items()],
    "triangulations": lambda n_max, g2_max: TriTable().fill(n_max, g2_max).entries.items(),
    "oneface": lambda n_max, g2_max: OneFaceTable().fill(n_max).entries.items(),
    # a one-face cell with i + j vertices has g2 = n + 1 - i - j
    "bip-oneface": lambda n_max, g2_max: [
        ((n, n + 1 - i - j), count) for (n, i, j), count in BipOneFaceTable().fill(n_max).entries.items()],
}


def _rows(model, n_max, g2_max=None) -> dict:
    """Rows 1..n_max of model's table, cut at g2_max: {n: {g2: count}}."""
    rows = defaultdict(Counter)
    for (n, g2), count in _CELLS[model](n_max, g2_max):
        rows[n][g2] += count
    return {n: rows[n] for n in range(1, n_max + 1)}


def _sizes(*tier_1):
    # the tier-1 (model, n_max), and the slow tier at maps 100 and triangulations 60
    return [*[pytest.param(model, n, id=model) for model, n in tier_1],
            *[pytest.param(model, n, marks=pytest.mark.slow, id=f"{model}-{n}")
              for model, n in [("maps", 100), ("triangulations", 60)]]]


@pytest.mark.parametrize("model, n_max", _sizes(("maps", 60), ("bipartite", 16),
                                                ("triangulations", 30), ("oneface", 60),
                                                ("bip-oneface", 30)))
def test_planar(model, n_max):
    rows, want = _rows(model, n_max, 0), [planar(model, n) for n in range(1, n_max + 1)]
    assert {type(x) for x in want} == {int}
    assert [row[0] for row in rows.values()] == want


@pytest.mark.parametrize("model, n_max", _sizes(("maps", 40), ("bipartite", 20),
                                                ("triangulations", 24), ("oneface", 60),
                                                ("bip-oneface", 30)))
def test_total(model, n_max):
    # every exact division of the fill passes, and every genus adds up
    rows, want = _rows(model, n_max), [total(model, n) for n in range(1, n_max + 1)]
    assert {type(x) for x in want} == {int}
    assert [sum(row.values()) for row in rows.values()] == want


@pytest.mark.parametrize("model", MODELS)
def test_a_changed_cell_fails_its_anchors(model):
    # +1 on the planar cell of row 6 fails both anchors, on its g2 = 2 cell
    # the total only
    row = _rows(model, 6)[6]

    def failed():
        return [name for name, got, want in [("planar", row[0], planar(model, 6)),
                                             ("total", sum(row.values()), total(model, 6))]
                if got != want]
    assert failed() == []
    row[0] += 1
    assert failed() == ["planar", "total"]
    row[0] -= 1
    row[2] += 1
    assert failed() == ["total"]


def test_unknown_model_or_row_raises():
    with pytest.raises(ValueError, match="unknown model 'spheres'"):
        total("spheres", 3)
    with pytest.raises(ValueError, match="start at row 1"):
        planar("maps", 0)
