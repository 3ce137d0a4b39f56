import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfcount.genus import genus_label, parse_genus


def test_labels():
    assert genus_label(0) == "0"
    assert genus_label(1) == "1/2"
    assert genus_label(7) == "7/2"
    assert genus_label(8) == "4"


def test_parse_forms():
    assert parse_genus("4") == 8
    assert parse_genus("7/2") == 7
    assert parse_genus("3.5") == 7
    assert parse_genus(" 0 ") == 0
    with pytest.raises(ValueError):
        parse_genus("7/3")
    with pytest.raises(ValueError):
        parse_genus("0.3")
    with pytest.raises(ValueError):
        parse_genus("-1")


@pytest.mark.parametrize("text", ["0.5000000001", "1.5e400", "1e1", ".5", "3.", "inf", "1_0"])
def test_parse_rejects_other_spellings(text):
    # decimals are read exactly: no float rounds 0.5000000001 to 1/2 or
    # overflows on 1.5e400
    with pytest.raises(ValueError):
        parse_genus(text)


def test_parse_decimals_exactly():
    assert parse_genus("0.5") == 1
    assert parse_genus("3.50") == 7
    assert parse_genus("12.0") == 24
    assert parse_genus("1" + "0" * 40 + ".5") == 2 * 10**40 + 1


@given(st.integers(min_value=0, max_value=200))
def test_label_parse_round_trip(g2):
    assert parse_genus(genus_label(g2)) == g2
