"""The scaffolding the six recurrence tables share."""

import gc
import weakref

import pytest

from surfcount.bipartite import BipOneFaceTable, BipTable
from surfcount.errors import MissingEntryError
from surfcount.maps import MapsCounts, MapsTable, OneFaceTable
from surfcount.table import Memo
from surfcount.triangulations import TriTable

# one cell of each table that a fresh table has not filled
UNFILLED = {
    MapsTable: (5, 0),
    MapsCounts: (5, 0),
    OneFaceTable: (5, 0),
    BipTable: (4, 0),
    BipOneFaceTable: (5, 1, 1),
    TriTable: (5, 0),
}


def test_each_table_defines_fill_and_entries():
    # the per-layer tracer wraps cls.__dict__["fill"]: a fill inherited
    # from the base class would only fail in the traced benchmark
    for cls in UNFILLED:
        assert "fill" in cls.__dict__, cls.__name__
        assert isinstance(cls().entries, dict), cls.__name__


@pytest.mark.parametrize("cls", list(UNFILLED), ids=lambda cls: cls.__name__)
def test_unfilled_cell_raises(cls):
    table = cls()
    read = table.poly if hasattr(table, "poly") else table.value
    cell = UNFILLED[cls]
    with pytest.raises(MissingEntryError) as info:
        read(*cell)
    assert str(info.value) == f"{cls.NAME}[{', '.join(map(str, cell))}] not filled yet"


@pytest.mark.parametrize("fill", [
    lambda: MapsTable("kz").fill(6),
    lambda: MapsTable("cc").fill(6),
    lambda: MapsCounts().fill(6),
    lambda: OneFaceTable().fill(6),
    lambda: BipTable().fill(5),
    lambda: BipOneFaceTable().fill(6),
    lambda: TriTable().fill(4),
], ids=["MapsTable-kz", "MapsTable-cc", "MapsCounts", "OneFaceTable", "BipTable",
        "BipOneFaceTable", "TriTable"])
def test_no_table_lives_in_a_reference_cycle(fill):
    # with the collector off, only reference counting can free the table
    gc.disable()
    try:
        table = fill()
        memos = [m for m in vars(table).values() if isinstance(m, Memo)]
        assert all(memos), "every memo is populated"
        ref = weakref.ref(table)
        del table, memos
        assert ref() is None, "table kept alive by a reference cycle"
    finally:
        gc.enable()
