import fcntl
import hashlib
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import surfcount.cache
import surfcount.cli
import surfcount.maps
from surfcount.bipartite import BipOneFaceTable
from surfcount.cache import CountCache, HEADER, _parse_record, record_line
from surfcount.cli import main
from surfcount.errors import CacheError, IntegralityError
from surfcount.maps import MapsCounts, MapsTable, OneFaceTable
from surfcount.poly import EXP_MAX, Poly, U, Z
from surfcount.triangulations import TriTable


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


def test_record_round_trip(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_scalar("bipartite", 4, 2, 17, (2, 1, 1))
    cache.put_scalar("maps", 16, 8, 783804517126931727890)
    assert CountCache(path).records == cache.records == {
        ("bipartite", 4, 2, (2, 1, 1)): 17,
        ("maps", 16, 8, None): 783804517126931727890,
    }


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


def test_two_writers_on_a_fresh_file_write_one_header(tmp_path, monkeypatch):
    # both writers open the new file before either one locks it: the
    # interleaving in which a header decided outside the lock is written twice
    path = tmp_path / "counts.ndjson"
    both_open = threading.Barrier(2, timeout=10)
    flock = fcntl.flock

    def flock_once_both_are_open(fh, op):
        if op == fcntl.LOCK_EX:
            both_open.wait()
        return flock(fh, op)

    monkeypatch.setattr(fcntl, "flock", flock_once_both_are_open)
    writers = [CountCache(path), CountCache(path)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(w.put_scalar, "oneface", 4, g2, 93) for g2, w in enumerate(writers)]
        for run in runs:
            run.result()
    lines = path.read_text().splitlines()
    assert [json.loads(line) == HEADER for line in lines] == [True, False, False]
    assert CountCache(path).records == {("oneface", 4, 0, None): 93, ("oneface", 4, 1, None): 93}


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
    args = ["maps", "--bivariate", "--n-max", "5", "--format", "csv"]
    CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)])
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
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "3", "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and ":2:" in res.stderr


def _edit_first_coefficient(path, model, edit, last):
    """Apply edit to the first coefficient record of model; its line number.

    With last, the edited record moves to the end of the file, without
    its newline.
    """
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[1:], 2):
        rec = json.loads(line)
        if rec["model"] == model and "i" in rec:
            edit(rec)
            if last:
                del lines[k - 1]
                path.write_text("\n".join(lines) + "\n" + json.dumps(rec))
                return len(lines) + 1
            lines[k - 1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            return k
    raise AssertionError(f"no {model} coefficient record")


@pytest.mark.parametrize("command, edit, last", [
    ("maps --bivariate", lambda rec: rec.update(i=-1), False),
    ("maps --bivariate", lambda rec: rec.pop("j"), False),
    ("bipartite --trivariate", lambda rec: rec.pop("k"), False),
    ("maps --bivariate", lambda rec: rec.update(j="1"), False),
    ("bipartite --trivariate", lambda rec: rec.update(value=int(rec["value"])), False),
    ("maps --bivariate", lambda rec: rec.update(i=-1), True),
], ids=["negative-index", "maps-one-index", "bipartite-two-indices", "string-index",
        "value-not-a-string", "last-line-without-newline"])
def test_cli_malformed_record_exit_code(tmp_path, command, edit, last):
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    CliRunner().invoke(main, [model, flag, "--n-max", "4", "--cache", str(path)])
    lineno = _edit_first_coefficient(path, model, edit, last)
    res = CliRunner().invoke(main, [model, flag, "--n-max", "5", "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and f":{lineno}: malformed" in res.stderr


@pytest.mark.parametrize("index, top", [('"i": 0, "j": 2097155', 2097155),
                                        ('"i": 1, "j": 512', 512)],
                         ids=["aliases-u-z3", "first-past-range"])
def test_cli_index_out_of_exponent_range_exit_code(tmp_path, index, top):
    # a z index past its field would alias another monomial: with 21-bit
    # fields j = 2^21 + 3 at i = 0 was served as u z^3, the record it replaced
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    text = path.read_text()
    record = '{"model": "maps", "n": 3, "g2": 1, "value": "22", "i": 1, "j": 3}'
    assert record in text
    path.write_text(text.replace(record, record.replace('"i": 1, "j": 3', index)))
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: {path}: maps[3,1]: z or v index {top} "
                          f"is above {EXP_MAX}, out of range\n")


@pytest.mark.parametrize("model, indices", [("maps", (0, 512)), ("bipartite", (0, 512, 0)),
                                            ("bipartite", (0, 0, 512))])
def test_get_row_rejects_indices_past_the_exponent_range(tmp_path, model, indices):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_scalar(model, 1, 0, 5, indices)
    cache.put_scalar(model, 1, 0, 5)
    with pytest.raises(CacheError, match=r"\[1,0\]: z or v index 512 is above 511"):
        CountCache(path).get_row(model, 1, 0)
    # one below the range is a row
    cache = CountCache(tmp_path / "ok.ndjson")
    cache.put_scalar(model, 1, 0, 5, tuple(min(x, EXP_MAX) for x in indices))
    cache.put_scalar(model, 1, 0, 5)
    assert cache.get_row(model, 1, 0).evaluate() == 5


def test_kz_engine_leaves_the_cache_unread(tmp_path):
    # engine kz never loads or stores cells, so a bad cache file is no error
    path = tmp_path / "counts.ndjson"
    CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)])
    _edit_first_coefficient(path, "maps", lambda rec: rec.update(i=-1), False)
    before = path.read_bytes()
    res = CliRunner().invoke(main, ["maps", "--n-max", "4", "--engine", "kz",
                                    "--cache", str(path)])
    assert res.exit_code == 0 and res.stderr == ""
    assert path.read_bytes() == before


@pytest.mark.parametrize("command", ["maps", "triangulations", "oneface", "bip-oneface",
                                     "bipartite"])
def test_uncached_commands_leave_the_cache_alone(tmp_path, command):
    # these tables recompute faster than their records parse: --cache is
    # accepted and ignored, so a file that is no cache is no error
    path = tmp_path / "counts.ndjson"
    path.write_text('{"format": "something-else"}\n')
    args = [command, "--n-max", "5", "--format", "csv"]
    res = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout == CliRunner().invoke(main, args + ["--no-cache"]).stdout
    assert path.read_text() == '{"format": "something-else"}\n'
    missing = tmp_path / "missing" / "counts.ndjson"
    assert CliRunner().invoke(main, args + ["--cache", str(missing)]).exit_code == 0
    assert not missing.parent.exists()


def test_scalar_bipartite_leaves_a_trivariate_cache_alone(tmp_path):
    # the counts come from the table at v = u, which the trivariate records
    # cannot serve: the file is neither read nor written
    path = tmp_path / "counts.ndjson"
    args = ["bipartite", "--n-max", "10"]
    plain = CliRunner().invoke(main, args + ["--no-cache"])
    assert plain.exit_code == 0
    res = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert res.exit_code == 0 and res.stdout == plain.stdout
    assert not path.exists()
    assert CliRunner().invoke(main, ["bipartite", "--trivariate", "--n-max", "10",
                                     "--cache", str(path)]).exit_code == 0
    before = path.read_bytes()
    res = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert res.exit_code == 0 and res.stderr == "" and res.stdout == plain.stdout
    assert path.read_bytes() == before


def _all_tables_cache(path):
    """Write the file that `maps --n-max 4`, `triangulations --n-max 3`,
    `oneface --n-max 4` and `bip-oneface --n-max 4` left, in that order,
    when every table was cached."""
    cache = CountCache(path)
    for model, tab in [("maps", MapsCounts().fill(4)), ("triangulations", TriTable().fill(3)),
                       ("oneface", OneFaceTable().fill(4))]:
        for (n, g2), value in tab.entries.items():
            cache.put_scalar(model, n, g2, value)
    for (n, i, j), value in BipOneFaceTable().fill(4).entries.items():
        cache.put_scalar("bip-oneface", n, n + 1 - i - j, value, (i, j))


def test_all_tables_cache_file_still_loads(tmp_path):
    path = tmp_path / "counts.ndjson"
    _all_tables_cache(path)
    # the bytes those four runs wrote with every table cached
    old = path.read_bytes()
    assert hashlib.sha256(old).hexdigest() == (
        "db969b697c47593400ff5bb75596b3b284852642ded68b03f3d2244fa8231041")
    for command in ("maps --bivariate", "bipartite --trivariate"):
        args = command.split() + ["--n-max", "5", "--format", "csv"]
        res = CliRunner().invoke(main, args + ["--cache", str(path)])
        assert res.exit_code == 0 and res.stderr == ""
        assert res.stdout == CliRunner().invoke(main, args + ["--no-cache"]).stdout
    # the scalar maps cells are the rows' totals: kept, checked, not written again
    assert path.read_bytes().startswith(old)
    assert len(CountCache(path).records) == len(path.read_bytes().splitlines()) - 1
    with path.open("a") as fh:
        fh.write('{"model": "oneface", "n": 4, "g2": -1, "value": "3"}\n')
    lineno = len(path.read_text().splitlines())
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "5", "--cache", str(path)])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and f":{lineno}: malformed" in res.stderr


def test_stale_records_are_not_loaded(tmp_path, monkeypatch):
    # a maps run skips the records of the tables that are no longer
    # cached, and of the rows above its --n-max, without parsing them
    path = tmp_path / "counts.ndjson"
    _all_tables_cache(path)
    caches = []

    class Recorded(CountCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)
    monkeypatch.setattr(surfcount.cli, "CountCache", Recorded)
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "3", "--cache", str(path)])
    assert res.exit_code == 0 and res.stderr == ""
    (cache,) = caches
    assert {(model, n) for model, n, *_ in cache.records} == {
        ("maps", n) for n in range(1, 4)}
    models = {json.loads(line)["model"] for line in path.read_text().splitlines()[1:]}
    assert models == {"maps", "triangulations", "oneface", "bip-oneface"}


def test_row_completes_after_its_total(tmp_path):
    path = tmp_path / "counts.ndjson"
    poly = 5 * U * U * Z + 7 * U * Z * Z
    CountCache(path).put_scalar("maps", 3, 1, 12)   # scalar table's cell
    cache = CountCache(path)
    assert cache.get_row("maps", 3, 1) is None
    cache.put_row("maps", 3, 1, poly, 12)
    assert CountCache(path).get_row("maps", 3, 1) == poly
    assert len(path.read_text().splitlines()) == 4   # header, total, two coefficients


def test_cold_store_is_one_append(tmp_path, monkeypatch):
    path = tmp_path / "counts.ndjson"
    appends = []
    append = CountCache._append
    monkeypatch.setattr(CountCache, "_append",
                        lambda self, records: appends.append(1) or append(self, records))
    args = ["bipartite", "--trivariate", "--n-max", "10", "--format", "csv"]
    cold = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert cold.exit_code == 0
    assert len(appends) == 1
    # 715 coefficients, as printed, and the totals of the 63 nonzero rows
    assert len(cold.stdout.splitlines()) == 1 + 715
    assert len(CountCache(path).records) == 778


def _bump_record(path, model, n, g2, indices=None):
    """Add 1 to the value of the cached record of model at (n, g2, indices)."""
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[1:], 1):
        rec = json.loads(line)
        if ((rec["model"], rec["n"], rec["g2"]) == (model, n, g2)
                and tuple(rec[c] for c in "ijk" if c in rec) == (indices or ())):
            rec["value"] = str(int(rec["value"]) + 1)
            lines[k] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            return int(rec["value"])
    raise AssertionError(f"no record {model}[{n},{g2}] {indices}")


def test_cli_corrupt_cached_cell_exit_code(tmp_path):
    # a wrong total alone makes the row incomplete, so it is recomputed,
    # and storing the recomputed row names the record that differs
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "5", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    _bump_record(path, "maps", 4, 1)
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {path}: maps[4,1]: cached 983, recomputed 982\n"
    assert path.read_bytes() == before


def _break_h50(monkeypatch):
    """Make engine cc's H[5,0] fail the integrality check: scaled by 1/3."""
    row_cc = surfcount.maps._row_cc

    def broken(n, top, tab):
        cells = row_cc(n, top, tab)
        return [poly.scale(Fraction(1, 3)) if (n, g2) == (5, 0) else poly
                for g2, poly in enumerate(cells)]
    monkeypatch.setattr(surfcount.maps, "_row_cc", broken)


def test_fill_failure_without_cached_rows_is_no_cache_fault(tmp_path, monkeypatch):
    path = tmp_path / "counts.ndjson"
    _break_h50(monkeypatch)
    with pytest.raises(IntegralityError, match=r"H\[5,0\]"):
        CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "6", "--cache", str(path)],
                           catch_exceptions=False)
    assert not path.exists()


def test_fill_failure_from_cached_rows_exit_code(tmp_path, monkeypatch):
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--cache", str(path), "--n-max"]
    assert CliRunner().invoke(main, args + ["4"]).exit_code == 0
    before = path.read_bytes()
    _break_h50(monkeypatch)
    res = CliRunner().invoke(main, args + ["6"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {path}: cached counts break the recurrence at H[5,0]")
    assert res.stderr.count("\n") == 1
    assert path.read_bytes() == before


def test_engine_mismatch_stores_nothing(tmp_path, monkeypatch):
    row_kz = surfcount.maps._row_kz

    def skewed(n, top, tab):
        # lazily: engine kz's sweep up the row reads each cell once written
        for g2, poly in enumerate(row_kz(n, top, tab)):
            yield poly + U * Z * Z * Z * Z if (n, g2) == (5, 2) else poly
    monkeypatch.setattr(surfcount.maps, "_row_kz", skewed)
    path = tmp_path / "counts.ndjson"
    res = CliRunner().invoke(main, ["maps", "--n-max", "5", "--engine", "both",
                                    "--cache", str(path)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "engine mismatch at n=5, g=1\n"
    assert not path.exists()


@pytest.mark.parametrize("record", ["total", "coefficient", "top-row-total"])
@pytest.mark.parametrize("command", ["maps --bivariate", "bipartite --trivariate"],
                         ids=["maps-bivariate", "bipartite-trivariate"])
def test_store_checks_held_records(tmp_path, command, record):
    # every record the file holds for a row, coefficient or total, is
    # compared with the recomputed row, whether or not a later row reads it
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    args = [model, flag, "--n-max", "6", "--format", "csv", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    n, g2 = (6, 2) if record == "top-row-total" else (4, 1)
    indices = None
    if record == "coefficient":
        rec = next(rec for rec in map(json.loads, path.read_text().splitlines()[1:])
                   if (rec["model"], rec["n"], rec["g2"]) == (model, n, g2) and "i" in rec)
        indices = tuple(rec[c] for c in "ijk" if c in rec)
    cached = _bump_record(path, model, n, g2, indices)
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    cell = ",".join(map(str, (n, g2, *(indices or ()))))
    assert res.stderr == f"error: {path}: {model}[{cell}]: cached {cached}, recomputed {cached - 1}\n"
    assert path.read_bytes() == before


def test_cli_corrupt_cached_seed_row_exit_code(tmp_path):
    # a coefficient and the total edited together: the row is complete and
    # is served, and only the comparison with the seed catches it
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    lines = path.read_text().splitlines()
    bumped = []
    for k, line in enumerate(lines[1:], 1):
        rec = json.loads(line)
        # the total and the u z^2 coefficient of H[2,1] = 5 u^2 z + 5 u z^2
        if (rec["model"], rec["n"], rec["g2"], rec.get("i")) in [("maps", 2, 1, None),
                                                                 ("maps", 2, 1, 1)]:
            rec["value"] = str(int(rec["value"]) + 1)
            lines[k] = json.dumps(rec)
            bumped.append(rec.get("i"))
    assert sorted(bumped, key=str) == [1, None]
    path.write_text("\n".join(lines) + "\n")
    assert CountCache(path).get_row("maps", 2, 1) is not None
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert str(path) in res.stderr and "maps[2,1]: cached " in res.stderr


def test_cli_cached_row_of_another_degree_exit_code(tmp_path):
    # a coefficient of u z, degree 2, added to H[4,1], of degree 5, with the
    # row's total raised by the same value: the row is complete, and every
    # row that reads it is cached too, so no recomputation sees it
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--format", "csv", "--cache", str(path), "--n-max"]
    assert CliRunner().invoke(main, args + ["6"]).exit_code == 0
    value = 25401600000
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[1:], 1):
        rec = json.loads(line)
        if (rec["model"], rec["n"], rec["g2"]) == ("maps", 4, 1) and "i" not in rec:
            rec["value"] = str(int(rec["value"]) + value)
            lines[k] = json.dumps(rec)
    lines.append(json.dumps({"model": "maps", "n": 4, "g2": 1, "i": 1, "j": 1,
                             "value": str(value)}))
    path.write_text("\n".join(lines) + "\n")
    assert CountCache(path).get_row("maps", 4, 1) is not None
    before = path.read_bytes()
    res = CliRunner().invoke(main, args + ["5"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {path}: maps[4,1]: cached row is not homogeneous of degree 5\n"
    assert path.read_bytes() == before


# -- the loader reads every line exactly as json.loads does ---------------

def _reference_load(path):
    """json.loads and _parse_record on every line: records, or CacheError."""
    lines = path.read_bytes().decode(errors="replace").split("\n")
    records = {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            if lineno < len(lines):
                raise CacheError(f"{path}:{lineno}: unparsable cache record") from None
            print(f"warning: dropping torn last line {lineno} of {path}", file=sys.stderr)
            return records
        if lineno == 1:
            if not isinstance(obj, dict) or obj.get("format") != HEADER["format"]:
                raise CacheError(f"not a surfcount cache: {path}")
            continue
        try:
            key, indices, value = _parse_record(obj)
        except ValueError as exc:
            raise CacheError(f"{path}:{lineno}: malformed cache record: {exc}") from None
        records[(*key, indices)] = value
    return records


def _escaped(s):
    return '"' + "".join(f"\\u{ord(c):04x}" for c in s) + '"'


def _with_n(text):
    # a spelling of n (or a new key n, in the header) that json.dumps never writes
    return lambda obj: json.dumps({**obj, "n": None}).replace("null", text).encode()


# each spelling turns a header or record dict into one line's bytes
_SPELLINGS = {
    "plain": lambda obj: json.dumps(obj).encode(),
    "compact": lambda obj: json.dumps(obj, separators=(",", ":")).encode(),
    "leading-blanks": lambda obj: b"  " + json.dumps(obj).encode(),
    "trailing-blanks": lambda obj: json.dumps(obj).encode() + b" \t",
    "carriage-return": lambda obj: json.dumps(obj).encode() + b"\r",
    "blank-inside": lambda obj: json.dumps(obj, separators=(" ,\t", " :  ")).encode(),
    "reordered-keys": lambda obj: json.dumps(dict(reversed(obj.items()))).encode(),
    "unicode-escapes": lambda obj: ("{" + ", ".join(
        f"{_escaped(k)}: {_escaped(v) if isinstance(v, str) else json.dumps(v)}"
        for k, v in obj.items()) + "}").encode(),
    "non-ascii-value": lambda obj: json.dumps({**obj, "value": "\u0661\u0662"},
                                              ensure_ascii=False).encode(),
    "bom": lambda obj: "\ufeff".encode() + json.dumps(obj).encode(),
    "n-exponent": _with_n("1e2"),
    "n-true": _with_n("true"),
    "n-minus-zero": _with_n("-0"),
    "nan-value": lambda obj: json.dumps({**obj, "value": float("nan")}).encode(),
    "duplicate-keys": lambda obj: b'{"n": 7, ' + json.dumps(obj).encode()[1:],
    "duplicate-keys-last-bad": lambda obj: json.dumps(obj).encode()[:-1] + b', "g2": "1"}',
    "invalid-utf8": lambda obj: json.dumps({**obj, "x": "\xff"}).encode("latin-1"),
    "two-values": lambda obj: json.dumps(obj).encode() * 2,
    "torn": lambda obj: json.dumps(obj).encode()[:-1],
    "torn-in-key": lambda obj: json.dumps(obj).encode()[:12],
    "not-an-object": lambda obj: json.dumps(list(obj)).encode(),
    "whitespace-only": lambda obj: b" \t ",
}
_RECORDS = [{"model": "maps", "n": 1, "g2": 0, "value": "2"},
            {"model": "maps", "n": 3, "g2": 1, "i": 2, "j": 3, "value": "12"},
            {"model": "bipartite", "n": 2, "g2": 1, "i": 1, "j": 1, "k": 1, "value": "1"}]


@pytest.mark.parametrize("place", ["header", "inner", "last", "last-newline"])
@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_load_reads_lines_as_json_loads(tmp_path, capsys, spelling, place):
    spell = _SPELLINGS[spelling]
    lines = [json.dumps(obj).encode() for obj in [HEADER] + _RECORDS]
    if place == "header":
        lines[0] = spell(HEADER)
    elif place == "inner":
        lines[2] = spell(_RECORDS[1])
    else:
        lines.append(spell({"model": "oneface", "n": 4, "g2": 2, "value": "93"}))
    path = tmp_path / "counts.ndjson"
    path.write_bytes(b"\n".join(lines) + (b"" if place == "last" else b"\n"))

    def outcome(load):
        try:
            got = ("records", load())
        except CacheError as exc:
            got = ("error", str(exc))
        return got, capsys.readouterr().err

    assert outcome(lambda: CountCache(path).records) == outcome(lambda: _reference_load(path))


@pytest.mark.parametrize("command", ["maps --bivariate", "bipartite --trivariate"])
def test_store_writes_exactly_the_missing_records(tmp_path, command):
    path = tmp_path / "counts.ndjson"
    args = command.split() + ["--n-max", "6", "--format", "csv", "--cache", str(path)]
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == 0
    full = path.read_bytes()
    lines = full.splitlines(keepends=True)
    # a coefficient record of a row below the top one
    k = next(k for k, line in enumerate(lines)
             if line.startswith(b'{"model": "%s", "n": 4, "g2": 1, ' % command.split()[0].encode())
             and b'"i"' in line)
    path.write_bytes(b"".join(lines[:k] + lines[k + 1:]))
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == 0 and warm.stdout == cold.stdout
    assert path.read_bytes() == b"".join(lines[:k] + lines[k + 1:] + [lines[k]])
    again = path.read_bytes()
    assert CliRunner().invoke(main, args).stdout == cold.stdout
    assert path.read_bytes() == again


@pytest.mark.parametrize("n_max", ["0", "1"])
@pytest.mark.parametrize("command", ["maps --bivariate", "bipartite --trivariate"])
def test_warm_run_below_the_seed_rows_appends_nothing(tmp_path, command, n_max):
    # the table stores its seed rows above n_max too, so the run reads them
    path = tmp_path / "counts.ndjson"
    args = command.split() + ["--n-max", n_max, "--cache", str(path)]
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == 0
    before = path.read_bytes()
    assert b'"n": 2, ' in before
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == 0 and warm.stdout == cold.stdout
    assert path.read_bytes() == before


@pytest.mark.parametrize("g_max", [[], ["--g-max", "3"]], ids=["all-genera", "g-max-3"])
@pytest.mark.parametrize("command", ["maps --bivariate", "bipartite --trivariate"])
def test_deleted_cell_of_a_middle_row_is_refilled(tmp_path, command, g_max):
    # every record of one genus cell of row 5 goes: the warm run computes
    # that row again, writes only the missing cell, and prints the cold run
    path = tmp_path / "counts.ndjson"
    model = command.split()[0]
    args = command.split() + ["--n-max", "8", *g_max, "--format", "csv", "--cache", str(path)]
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == 0
    lines = path.read_bytes().splitlines(keepends=True)
    cell = b'{"model": "%s", "n": 5, "g2": 2, ' % model.encode()
    kept = [line for line in lines if not line.startswith(cell)]
    dropped = [line for line in lines if line.startswith(cell)]
    assert dropped
    path.write_bytes(b"".join(kept))
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == 0 and warm.stdout == cold.stdout
    assert path.read_bytes() == b"".join(kept + dropped)


def test_store_skips_the_rows_it_served(tmp_path, monkeypatch):
    # a warm run's rows come from the file's own records: storing them
    # again reads the coefficients of the seed rows only, still compared
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--engine", "cc", "--n-max", "7", "--cache", str(path)]
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == 0
    before = path.read_bytes()
    read = []
    records = surfcount.cache.coefficient_records
    monkeypatch.setattr(surfcount.cache, "coefficient_records",
                        lambda model, row: read.append(row) or records(model, row))
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == 0 and warm.stdout == cold.stdout
    seeds = list(MapsTable.SEEDS.values())
    assert len(read) == len(seeds) and all(any(p is s for s in seeds) for p in read)
    assert path.read_bytes() == before


# -- a request reads only the lines it needs ------------------------------

_MODELS = ("maps", "bipartite", "bip-oneface", "triangulations", "oneface")


def _skipped(line, lineno, last, model, n_max):
    """The documented rule: an inner line that is a whole record with the
    canonical start, of another model or of n above n_max."""
    head = re.match('{"model": "([a-z-]+)", "n": (0|[1-9][0-9]*), "g2": (0|[1-9][0-9]*),',
                    line)
    return (1 < lineno < last and line.endswith("}") and head is not None
            and head[1] in _MODELS and (head[1] != model or int(head[2]) > n_max))


@pytest.mark.parametrize("place", ["header", "inner", "last", "last-newline", "other-model"])
@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_selective_load_reads_lines_as_json_loads(tmp_path, capsys, spelling, place):
    # the records of maps with n <= 3 are those of the full load; a line
    # the request reads raises what the full load raises on it
    spell = _SPELLINGS[spelling]
    lines = [json.dumps(obj).encode() for obj in [HEADER] + _RECORDS]
    if place == "header":
        lines[0] = spell(HEADER)
    elif place == "inner":
        lines[2] = spell(_RECORDS[1])
    elif place == "other-model":
        lines[3] = spell(_RECORDS[2])
    else:
        lines.append(spell({"model": "oneface", "n": 4, "g2": 2, "value": "93"}))
    path = tmp_path / "counts.ndjson"
    path.write_bytes(b"\n".join(lines) + (b"" if place == "last" else b"\n"))
    # the lines it skips, blanked, are lines the reference skips too
    text = path.read_bytes().decode(errors="replace").split("\n")
    read = tmp_path / "read.ndjson"
    read.write_bytes("\n".join(
        "" if _skipped(line, k, len(text), "maps", 3) else line
        for k, line in enumerate(text, 1)).encode())

    def outcome(load):
        try:
            got = ("records", load())
        except CacheError as exc:
            got = ("error", str(exc).replace(str(read), str(path)))
        return got, capsys.readouterr().err.replace(str(read), str(path))

    def reference():
        return {key: value for key, value in _reference_load(read).items()
                if key[0] == "maps" and key[1] <= 3}
    assert outcome(lambda: CountCache(path, "maps", 3).records) == outcome(reference)


def test_selective_load_reads_the_first_line(tmp_path):
    # a file that starts with a record, not the header, is no cache, even
    # when that record is one a request would skip
    path = tmp_path / "counts.ndjson"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in _RECORDS[::-1]))
    with pytest.raises(CacheError, match="not a surfcount cache"):
        CountCache(path, "maps", 3)


def _maps_cache_with(path, line, last=False):
    """A maps --bivariate cache for n <= 4 with line put before its last
    record, or with last after it, without a newline; the line's number."""
    assert CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4",
                                     "--cache", str(path)]).exit_code == 0
    lines = path.read_text().splitlines()
    if last:
        path.write_text("\n".join(lines) + "\n" + line)
        return len(lines) + 1
    path.write_text("\n".join(lines[:-1] + [line, lines[-1]]) + "\n")
    return len(lines)


@pytest.mark.parametrize("line, error", [
    ('{"model": "bipartite", "n": 9, "g2": 0, "i": 1, "j": 1, "k": 1, "value": "1"',
     "unparsable cache record"),
    ('{"model": "bipartite", "n": "4", "g2": 0, "i": 1, "j": 1, "k": 1, "value": "1"}',
     "malformed cache record"),
], ids=["torn-before-its-brace", "n-a-string"])
def test_cli_malformed_line_of_another_model_exit_code(tmp_path, line, error):
    # a line whose start or end is not canonical is read, whatever its model
    path = tmp_path / "counts.ndjson"
    lineno = _maps_cache_with(path, line)
    before = path.read_bytes()
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4",
                                    "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and f":{lineno}: {error}" in res.stderr
    assert path.read_bytes() == before


_HUGE = "9" * 5000   # beyond int()'s default limit of 4300 digits


@pytest.mark.parametrize("line, error", [
    ('{"model": "maps", "n": 3, "g2": 1, "value": "%s", "i": 2, "j": 3}' % _HUGE,
     "malformed cache record"),
    ('{"model": "maps", "n": %s, "g2": 1, "value": "1", "i": 2, "j": 3}' % _HUGE,
     "unparsable cache record"),
    ('{"model": "bipartite", "n": 3, "g2": %s, "value": "1"}' % _HUGE,
     "unparsable cache record"),
], ids=["value", "n", "g2-of-another-model"])
def test_cli_number_beyond_the_digit_limit_exit_code(tmp_path, line, error):
    # a line with a number too long for the writer's form is read by
    # json.loads, and is one stderr line, whatever its model
    path = tmp_path / "counts.ndjson"
    lineno = _maps_cache_with(path, line)
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4",
                                    "--cache", str(path)])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and f":{lineno}: {error}" in res.stderr


def test_cli_torn_last_line_of_another_model_is_dropped_and_cut(tmp_path):
    path = tmp_path / "counts.ndjson"
    lineno = _maps_cache_with(path, '{"model": "bipartite", "n": 9, "g2": 0, "val', last=True)
    args = ["maps", "--bivariate", "--format", "csv", "--n-max"]
    res = CliRunner().invoke(main, args + ["5", "--cache", str(path)])
    assert res.exit_code == 0
    assert res.stdout == CliRunner().invoke(main, args + ["5", "--no-cache"]).stdout
    assert res.stderr == f"warning: dropping torn last line {lineno} of {path}\n"
    assert '"bipartite"' not in path.read_text()
    assert CountCache(path).records == CountCache(path, "maps", 5).records


def test_model_view_needs_n_max(tmp_path):
    # without n_max the view could not tell which lines to skip
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_scalar("maps", 1, 0, 2)
    with pytest.raises(ValueError, match="n_max"):
        CountCache(path, "maps")


def test_full_view_does_not_load(tmp_path):
    # a view of every model has no model whose rows it could serve
    path = tmp_path / "counts.ndjson"
    CountCache(path, "maps", 3).store(MapsTable("cc").fill(3).entries)
    with pytest.raises(ValueError, match="one model"):
        CountCache(path).load({}, 3)


def test_full_view_does_not_store(tmp_path):
    path = tmp_path / "counts.ndjson"
    with pytest.raises(ValueError, match="one model"):
        CountCache(path).store(MapsTable("cc").fill(3).entries)
    assert not path.exists()


# -- the record writer and the files the CLI writes -------------------------

# the number of indices each model's records carry
_WIDTHS = {"maps": (0, 2), "bipartite": (0, 3), "bip-oneface": (2,),
           "triangulations": (0,), "oneface": (0,)}
_SMALL = st.integers(min_value=0, max_value=12)
_NATURALS = st.one_of(_SMALL, st.integers(min_value=0, max_value=10**30))


@st.composite
def _records(draw):
    model = draw(st.sampled_from(_MODELS))
    width = draw(st.sampled_from(_WIDTHS[model]))
    indices = tuple(draw(_NATURALS) for _ in range(width)) or None
    value = draw(st.one_of(_SMALL, st.integers(min_value=0, max_value=10**45)))
    return model, draw(_NATURALS), draw(_NATURALS), indices, value


def _views(path, n_maxes):
    """Each view of path, and the reference load filtered to it."""
    everything = _reference_load(path)
    yield CountCache(path).records, everything
    for model in _MODELS:
        for n_max in n_maxes:
            yield (CountCache(path, model, n_max).records,
                   {key: value for key, value in everything.items()
                    if key[0] == model and key[1] <= n_max})


@settings(max_examples=150, deadline=None)
@given(st.lists(_records(), max_size=12), _SMALL)
def test_record_line_is_json_dumps(tmp_path_factory, records, n_max):
    # every line is what json.dumps writes for the record's dict, and a
    # file of them loads the same through the writer's form and json.loads
    lines = []
    for model, n, g2, indices, value in records:
        obj = {"model": model, "n": n, "g2": g2, "value": str(value)}
        obj.update(zip("ijk", indices or ()))
        lines.append(record_line(model, n, g2, indices, value))
        assert lines[-1] == json.dumps(obj) + "\n"
    path = tmp_path_factory.getbasetemp() / "writer.ndjson"
    path.write_text(json.dumps(HEADER) + "\n" + "".join(lines))
    for got, expected in _views(path, [n_max]):
        assert got == expected


# one cache file through a short session of polynomial-row requests
_SESSION = ["maps --bivariate --n-max 4", "bipartite --trivariate --n-max 3",
            "maps --engine both --n-max 4", "maps --bivariate --n-max 6",
            "bipartite --trivariate --n-max 5", "maps --engine both --n-max 6",
            "maps --bivariate --n-max 5", "bipartite --trivariate --n-max 4",
            "maps --engine both --n-max 5"]


def test_session_file_loads_as_json_loads(tmp_path):
    # every view of the file the CLI writes reads what json.loads reads,
    # after every request; each request prints what it prints uncached
    path = tmp_path / "counts.ndjson"
    for k, command in enumerate(_SESSION):
        args = command.split() + ["--format", ("table", "csv", "json")[k % 3]]
        res = CliRunner().invoke(main, args + ["--cache", str(path)])
        assert res.exit_code == 0 and res.stderr == ""
        assert res.stdout == CliRunner().invoke(main, args + ["--no-cache"]).stdout
        for got, expected in _views(path, range(8)):
            assert got == expected
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "08390c13bd0d83e90b71a53980e9a5bf8b4e2b936d0e41c7b208288ddf59f39b")
