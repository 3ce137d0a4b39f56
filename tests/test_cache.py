import json

import pytest
from click.testing import CliRunner

from surfcount.cache import CountCache, CountRecord, HEADER
from surfcount.cli import main
from surfcount.errors import CacheError
from surfcount.poly import U, Z


def test_round_trip_scalars(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_scalar("triangulations", 5, 3, 123456789012345678901234567890)
    cache.put_scalar("oneface", 4, 2, 93)
    reloaded = CountCache(path)
    assert reloaded.get_scalar("triangulations", 5, 3) == 123456789012345678901234567890
    assert reloaded.get_scalar("oneface", 4, 2) == 93
    assert reloaded.get_scalar("oneface", 9, 9) is None


def test_round_trip_rows(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    poly = 5 * U * U * Z + 7 * U * Z * Z
    cache.put_row("maps", 3, 1, poly, 12)
    reloaded = CountCache(path)
    assert reloaded.get_row("maps", 3, 1) == poly
    assert reloaded.get_scalar("maps", 3, 1) == 12
    assert reloaded.get_row("maps", 3, 2) is None


def test_header_and_format(tmp_path):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_scalar("maps", 1, 0, 2)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == HEADER
    rec = json.loads(lines[1])
    assert rec["value"] == "2" and isinstance(rec["value"], str)


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.ndjson"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        CountCache(path)


def test_record_round_trip():
    rec = CountRecord("bipartite", 4, 2, 17, (2, 1, 1))
    assert CountRecord.from_dict(rec.as_dict()) == rec
    plain = CountRecord("maps", 16, 8, 783804517126931727890)
    assert CountRecord.from_dict(plain.as_dict()) == plain


def test_append_only_dedupe(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_scalar("maps", 2, 2, 5)
    cache.put_scalar("maps", 2, 2, 5)   # second write is a no-op
    assert sum(1 for line in path.read_text().splitlines() if line) == 2


def test_empty_file_gets_header(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.touch()
    CountCache(path).put_scalar("maps", 1, 0, 2)
    assert json.loads(path.read_text().splitlines()[0]) == HEADER
    assert CountCache(path).get_scalar("maps", 1, 0) == 2


def test_torn_last_line_is_dropped_and_cut_off(tmp_path, capsys):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_scalar("maps", 1, 0, 2)
    with path.open("a") as fh:
        fh.write('{"model": "maps", "n": 2, "g2"')   # append died mid-record
    cache = CountCache(path)
    assert "torn" in capsys.readouterr().err
    assert cache.get_scalar("maps", 1, 0) == 2
    assert cache.get_scalar("maps", 2, 0) is None
    cache.put_scalar("maps", 2, 0, 9)
    reloaded = CountCache(path)
    assert capsys.readouterr().err == ""
    assert reloaded.records == cache.records
    assert path.read_text().endswith('"value": "9"}\n')


def test_complete_last_record_without_newline_is_kept(tmp_path, capsys):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_scalar("maps", 1, 0, 2)
    path.write_text(path.read_text().rstrip("\n"))
    cache = CountCache(path)
    assert cache.get_scalar("maps", 1, 0) == 2
    cache.put_scalar("maps", 1, 1, 1)
    assert CountCache(path).records == cache.records
    assert capsys.readouterr().err == ""


def test_corrupt_inner_line_raises(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_scalar("maps", 1, 0, 2)
    cache.put_scalar("maps", 1, 1, 1)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:10] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match=":2:"):
        CountCache(path)


def test_cli_survives_torn_tail(tmp_path):
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--n-max", "5", "--format", "csv"]
    CliRunner().invoke(main, ["maps", "--n-max", "4", "--cache", str(path)])
    with path.open("a") as fh:
        fh.write('{"model": "maps", "n": 5, "g2": 0, "val')
    again = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert again.exit_code == 0
    assert again.stdout == CliRunner().invoke(main, args + ["--no-cache"]).stdout
    assert len(again.stderr.splitlines()) == 1
    CountCache(path)   # the torn line is gone, the new records parse


def test_cli_corrupt_cache_exit_code(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.write_text(json.dumps(HEADER) + "\n{not json}\n"
                    + '{"model": "maps", "n": 1, "g2": 0, "value": "2"}\n')
    res = CliRunner().invoke(main, ["maps", "--n-max", "3", "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and ":2:" in res.stderr
