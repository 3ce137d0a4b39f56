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
from surfcount.bipartite import BipTable
from surfcount.cache import ROW_WIDTH, CountCache, HEADER, _parse_row, coefficient_records
from surfcount.cli import main
from surfcount.errors import CacheError, IntegralityError
from surfcount.maps import MapsTable
from surfcount.poly import EXP_MAX, Poly, U, V, Z

# H[1,0] = u^2 z + u z^2 and H[2,0] = 2 u z^3 + 5 u^2 z^2 + 2 u^3 z
H10, H20 = U * U * Z + U * Z * Z, 2 * U * Z * Z * Z + 5 * U * U * Z * Z + 2 * U * U * U * Z


def test_round_trip_scalars(tmp_path):
    # a row's total is its scalar count; nothing but whole rows is stored
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    big = 123456789012345678901234567890
    cache.put_row("maps", 5, 3, big * H10, 2 * big)
    reloaded = CountCache(path)
    assert reloaded.get_scalar("maps", 5, 3) == 2 * big
    assert reloaded.get_scalar("maps", 9, 9) is None
    before = path.read_bytes()
    with pytest.raises(ValueError, match="put_row"):
        cache.put_scalar("oneface", 4, 2, 93)
    assert path.read_bytes() == before


def test_round_trip_rows(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    poly = 5 * U * U * Z + 7 * U * Z * Z
    cache.put_row("maps", 3, 1, poly, 12)
    reloaded = CountCache(path)
    assert reloaded.get_row("maps", 3, 1) == poly
    assert reloaded.get_scalar("maps", 3, 1) == 12
    assert reloaded.get_row("maps", 3, 2) is None
    with pytest.raises(ValueError, match="total 13"):
        cache.put_row("maps", 3, 2, poly, 13)


def test_header_and_format(tmp_path):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_row("maps", 1, 0, H10, 2)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == HEADER == {"format": "surfcount-cache", "version": 2}
    assert json.loads(lines[1]) == {"model": "maps", "n": 1, "g2": 0, "total": "2",
                                    "c": [1, 2, "1", 2, 1, "1"]}


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.ndjson"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        CountCache(path)


def test_record_round_trip(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_row("bipartite", 4, 2, 17 * U * U * V * Z, 17)
    cache.put_row("maps", 16, 8, 783804517126931727890 * U * Z, 783804517126931727890)
    assert CountCache(path).records == cache.records == {
        ("bipartite", 4, 2, (2, 1, 1)): 17,
        ("bipartite", 4, 2, None): 17,
        ("maps", 16, 8, (1, 1)): 783804517126931727890,
        ("maps", 16, 8, None): 783804517126931727890,
    }


def test_append_only_dedupe(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_row("maps", 1, 0, H10, 2)
    cache.put_row("maps", 1, 0, H10, 2)   # second write is a no-op
    assert sum(1 for line in path.read_text().splitlines() if line) == 2
    before = path.read_bytes()
    with pytest.raises(CacheError, match=r"maps\[1,0\]: cached row differs"):
        cache.put_row("maps", 1, 0, 2 * H10, 4)
    assert path.read_bytes() == before


def test_empty_file_gets_header(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.touch()
    CountCache(path).put_row("maps", 1, 0, H10, 2)
    assert json.loads(path.read_text().splitlines()[0]) == HEADER
    assert CountCache(path).get_scalar("maps", 1, 0) == 2


def test_torn_last_line_is_dropped_and_cut_off(tmp_path, capsys):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_row("maps", 1, 0, H10, 2)
    with path.open("a") as fh:
        fh.write('{"model": "maps", "n": 2, "g2"')   # append died mid-row
    cache = CountCache(path)
    assert "torn" in capsys.readouterr().err
    assert cache.get_scalar("maps", 1, 0) == 2
    assert cache.get_scalar("maps", 2, 0) is None
    cache.put_row("maps", 2, 0, H20, 9)
    reloaded = CountCache(path)
    assert capsys.readouterr().err == ""
    assert reloaded.records == cache.records
    assert path.read_text().endswith('"total": "9", "c": [1, 3, "2", 2, 2, "5", 3, 1, "2"]}\n')


def test_complete_last_record_without_newline_is_kept(tmp_path, capsys):
    path = tmp_path / "counts.ndjson"
    CountCache(path).put_row("maps", 1, 0, H10, 2)
    path.write_text(path.read_text().rstrip("\n"))
    cache = CountCache(path)
    assert cache.get_scalar("maps", 1, 0) == 2
    cache.put_row("maps", 2, 0, H20, 9)
    assert CountCache(path).records == cache.records
    assert capsys.readouterr().err == ""


def test_two_writers_on_a_fresh_file_write_one_header(tmp_path, monkeypatch):
    # both writers open the new file before either one locks it: the
    # interleaving in which a header decided outside the lock is written
    # twice.  Each appends the row its view lacks, so the row is on two
    # equal lines, and a load keeps one copy.
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
        runs = [pool.submit(w.put_row, "maps", 1, 0, H10, 2) for w in writers]
        for run in runs:
            run.result()
    lines = path.read_text().splitlines()
    assert [json.loads(line) == HEADER for line in lines] == [True, False, False]
    assert lines[1] == lines[2]
    assert CountCache(path).records == {("maps", 1, 0, (1, 2)): 1, ("maps", 1, 0, (2, 1)): 1,
                                        ("maps", 1, 0, None): 2}


def test_corrupt_inner_line_raises(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(path)
    cache.put_row("maps", 1, 0, H10, 2)
    cache.put_row("maps", 2, 0, H20, 9)
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
        fh.write('{"model": "maps", "n": 5, "g2": 0, "tot')
    again = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert again.exit_code == 0
    assert again.stdout == CliRunner().invoke(main, args + ["--no-cache"]).stdout
    assert len(again.stderr.splitlines()) == 1
    CountCache(path)   # the torn line is gone, the new rows parse


def test_cli_corrupt_cache_exit_code(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.write_text(json.dumps(HEADER) + "\n{not json}\n"
                    + '{"model": "maps", "n": 1, "g2": 0, "total": "2", "c": [1, 2, "1", 2, 1, "1"]}\n')
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "3", "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and ":2:" in res.stderr


def _edit_row(path, model, n, g2, edit):
    """Apply edit to the row dict on the line of model[n,g2]; its line number."""
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[1:], 2):
        rec = json.loads(line)
        if (rec["model"], rec["n"], rec["g2"]) == (model, n, g2):
            edit(rec)
            lines[k - 1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            return k
    raise AssertionError(f"no row {model}[{n},{g2}]")


def _bump(rec, indices, by=1):
    """Add by to the value of rec's term at indices."""
    c, step = rec["c"], len(indices) + 1
    k = next(k for k in range(0, len(c), step) if tuple(c[k:k + step - 1]) == indices)
    c[k + step - 1] = str(int(c[k + step - 1]) + by)


def _edit_first_row(path, model, edit, place):
    """Apply edit to the first row of model; the edited line's number.

    With place "last", the edited row moves to the end of the file,
    without its newline; with "copy", it is appended after the row.
    """
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines[1:], 2) if json.loads(line)["model"] == model)
    rec = json.loads(lines[k - 1])
    edit(rec)
    if place == "last":
        del lines[k - 1]
        path.write_text("\n".join(lines) + "\n" + json.dumps(rec))
        return len(lines) + 1
    if place == "copy":
        path.write_text("\n".join(lines + [json.dumps(rec)]) + "\n")
        return len(lines) + 1
    lines[k - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return k


def _negative_index(rec):
    rec["c"][0] = -1


def _string_index(rec):
    rec["c"][1] = str(rec["c"][1])


def _int_value(rec):
    rec["c"][3] = int(rec["c"][3])


def _repeated_indices(rec):
    rec["c"][3:5] = rec["c"][0:2]


def _another_row(rec):
    # one more at the first coefficient, and at the total: a row that
    # still sums to its total, and is not the row of the first line
    rec["c"][2] = str(int(rec["c"][2]) + 1)
    rec["total"] = str(int(rec["total"]) + 1)


@pytest.mark.parametrize("command, edit, place, error", [
    ("maps --bivariate", _negative_index, "inner", "malformed"),
    ("maps --bivariate", lambda rec: rec["c"].pop(0), "inner", "malformed"),
    ("bipartite --trivariate", lambda rec: rec["c"].pop(0), "inner", "malformed"),
    ("maps --bivariate", _string_index, "inner", "malformed"),
    ("bipartite --trivariate", _int_value, "inner", "malformed"),
    ("maps --bivariate", _negative_index, "last", "malformed"),
    ("maps --bivariate", _repeated_indices, "inner", "malformed cache record: an index tuple repeats"),
    ("maps --bivariate", _another_row, "copy",
     "maps[1,0]: row differs from an earlier line of it"),
], ids=["negative-index", "maps-one-index", "bipartite-two-indices", "string-index",
        "value-not-a-string", "last-line-without-newline", "repeated-indices",
        "differing-duplicate"])
def test_cli_malformed_record_exit_code(tmp_path, command, edit, place, error):
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    CliRunner().invoke(main, [model, flag, "--n-max", "4", "--cache", str(path)])
    lineno = _edit_first_row(path, model, edit, place)
    res = CliRunner().invoke(main, [model, flag, "--n-max", "5", "--cache", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and f"{path}:{lineno}: {error}" in res.stderr


@pytest.mark.parametrize("index, top", [("0, 2097155", 2097155), ("1, 512", 512)],
                         ids=["aliases-u-z3", "first-past-range"])
def test_cli_index_out_of_exponent_range_exit_code(tmp_path, index, top):
    # a z index past its field would alias another monomial: with 21-bit
    # fields j = 2^21 + 3 at i = 0 was served as u z^3, the term it replaced
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    text = path.read_text()
    row = '{"model": "maps", "n": 3, "g2": 1, "total": "98", "c": [1, 3, "22", '
    assert row in text
    path.write_text(text.replace(row, row.replace("1, 3,", index + ",")))
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: {path}: maps[3,1]: z or v index {top} "
                          f"is above {EXP_MAX}, out of range\n")


def _row_file(path, model, indices):
    """A cache file holding one row, model[1,0], of one term 5 at indices."""
    c = [*indices, "5"]
    path.write_text(json.dumps(HEADER) + "\n" + json.dumps(
        {"model": model, "n": 1, "g2": 0, "total": "5", "c": c}) + "\n")


@pytest.mark.parametrize("model, indices", [("maps", (0, 512)), ("bipartite", (0, 512, 0)),
                                            ("bipartite", (0, 0, 512))])
def test_get_row_rejects_indices_past_the_exponent_range(tmp_path, model, indices):
    path = tmp_path / "counts.ndjson"
    _row_file(path, model, indices)
    with pytest.raises(CacheError, match=r"\[1,0\]: z or v index 512 is above 511"):
        CountCache(path).get_row(model, 1, 0)
    # one below the range is a row
    _row_file(path, model, tuple(min(x, EXP_MAX) for x in indices))
    assert CountCache(path).get_row(model, 1, 0).evaluate() == 5


def test_kz_engine_leaves_the_cache_unread(tmp_path):
    # engine kz never loads or stores rows, so a bad cache file is no error
    path = tmp_path / "counts.ndjson"
    CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)])
    _edit_first_row(path, "maps", _negative_index, "inner")
    before = path.read_bytes()
    res = CliRunner().invoke(main, ["maps", "--n-max", "4", "--engine", "kz",
                                    "--cache", str(path)])
    assert res.exit_code == 0 and res.stderr == ""
    assert path.read_bytes() == before


@pytest.mark.parametrize("command", ["maps", "triangulations", "oneface", "bip-oneface",
                                     "bipartite"])
def test_uncached_commands_leave_the_cache_alone(tmp_path, command):
    # these tables recompute faster than their rows parse: --cache is
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
    # the counts come from the table at v = u, which the trivariate rows
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


def _version_1_lines(model, table):
    """The record lines that version 1 wrote for table's rows: one per
    coefficient, value then the indices as i, j[, k], and one per total."""
    lines = []
    for (n, g2), poly in table.entries.items():
        for indices, value in coefficient_records(model, poly) + [((), poly.evaluate())]:
            lines.append(json.dumps({"model": model, "n": n, "g2": g2, "value": str(value),
                                     **dict(zip("ijk", indices))}))
    return lines


@pytest.mark.parametrize("header, error", [
    ({"format": "surfcount-cache", "version": 1},
     "cache file of format version 1, not 2: delete it"),
    (HEADER, ":2: malformed cache record"),
    (None, "not a surfcount cache"),
], ids=["version-1", "record-lines-under-version-2", "record-lines-without-header"])
@pytest.mark.parametrize("command", ["maps --bivariate", "bipartite --trivariate"])
def test_record_per_line_file_exit_code(tmp_path, command, header, error):
    # a version-1 file, one record per coefficient, is neither converted
    # nor read: one stderr line names it, and its bytes stay as they were
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    table = (MapsTable("cc") if model == "maps" else BipTable()).fill(4, 4)
    lines = ([json.dumps(header)] if header else []) + _version_1_lines(model, table)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    res = CliRunner().invoke(main, [model, flag, "--n-max", "5", "--cache", str(path)])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and str(path) in res.stderr and error in res.stderr
    assert path.read_bytes() == before


def test_stale_records_are_not_loaded(tmp_path, monkeypatch):
    # a maps run skips the rows of bipartite and those above its --n-max
    # without parsing them
    path = tmp_path / "counts.ndjson"
    for command in ("maps --bivariate", "bipartite --trivariate"):
        args = command.split() + ["--n-max", "6", "--cache", str(path)]
        assert CliRunner().invoke(main, args).exit_code == 0
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
    assert models == {"maps", "bipartite"}


def test_cold_store_is_one_append(tmp_path, monkeypatch):
    path = tmp_path / "counts.ndjson"
    appends = []
    append = CountCache._append
    monkeypatch.setattr(CountCache, "_append",
                        lambda self, rows: appends.append(1) or append(self, rows))
    args = ["bipartite", "--trivariate", "--n-max", "10", "--format", "csv"]
    cold = CliRunner().invoke(main, args + ["--cache", str(path)])
    assert cold.exit_code == 0
    assert len(appends) == 1
    # 715 coefficients, as printed, and the totals of the 63 nonzero rows
    assert len(cold.stdout.splitlines()) == 1 + 715
    assert len(CountCache(path).records) == 778


def test_cli_corrupt_cached_cell_exit_code(tmp_path):
    # a row whose coefficients do not sum to its total is an error, not a
    # row to refill
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "5", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    lineno = _edit_row(path, "maps", 4, 1, lambda rec: rec.update(total="983"))
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: {path}:{lineno}: malformed cache record: maps[4,1]: "
                          "coefficients sum to 982, not to the total 983\n")
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
    # every value a row line holds, coefficient or total, is checked
    # against the others on load, whether or not a later row reads it
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    args = [model, flag, "--n-max", "6", "--format", "csv", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    n, g2 = (6, 2) if record == "top-row-total" else (4, 1)
    sums = []

    def edit(rec):
        total = int(rec["total"])
        if record == "coefficient":
            _bump(rec, tuple(rec["c"][:ROW_WIDTH[model]]))
            sums.extend([total + 1, total])
        else:
            rec["total"] = str(total + 1)
            sums.extend([total, total + 1])
    lineno = _edit_row(path, model, n, g2, edit)
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: {path}:{lineno}: malformed cache record: {model}[{n},{g2}]: "
                          f"coefficients sum to {sums[0]}, not to the total {sums[1]}\n")
    assert path.read_bytes() == before


def _h21_plus_one_each(rec):
    # the total and both coefficients of H[2,1] = 5 u^2 z + 5 u z^2: the
    # row still sums to its total and is symmetric
    _bump(rec, (1, 2))
    _bump(rec, (2, 1))
    rec["total"] = str(int(rec["total"]) + 2)


def test_cli_corrupt_cached_seed_row_exit_code(tmp_path):
    # a row served whole, caught only by the comparison with the seed
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "4", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    _edit_row(path, "maps", 2, 1, _h21_plus_one_each)
    assert CountCache(path).get_row("maps", 2, 1) is not None
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert str(path) in res.stderr and "maps[2,1]: cached " in res.stderr


def test_store_compares_a_held_seed_row_above_n_max(tmp_path):
    # the seed rows above --n-max are read but not served: storing the
    # table compares them with the file's lines
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--n-max", "1", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0
    _edit_row(path, "maps", 2, 1, _h21_plus_one_each)
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {path}: maps[2,1]: cached row differs from the recomputed one\n"
    assert path.read_bytes() == before


def test_cli_cached_row_of_another_degree_exit_code(tmp_path):
    # a coefficient of u z, degree 2, added to H[4,1], of degree 5, with the
    # row's total raised by the same value: the row sums to its total and
    # is symmetric, and every row that reads it is cached too, so no
    # recomputation sees it
    path = tmp_path / "counts.ndjson"
    args = ["maps", "--bivariate", "--format", "csv", "--cache", str(path), "--n-max"]
    assert CliRunner().invoke(main, args + ["6"]).exit_code == 0
    value = 25401600000

    def edit(rec):
        rec["c"] += [1, 1, str(value)]
        rec["total"] = str(int(rec["total"]) + value)
    _edit_row(path, "maps", 4, 1, edit)
    assert CountCache(path).get_row("maps", 4, 1) is not None
    before = path.read_bytes()
    res = CliRunner().invoke(main, args + ["5"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {path}: maps[4,1]: cached row is not homogeneous of degree 5\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("command, n, g2, moves, swap", [
    ("maps --bivariate", 5, 1, {(1, 5): 1, (2, 4): -1}, "u <-> z"),
    ("bipartite --trivariate", 4, 1, {(1, 3, 1): 1, (1, 2, 2): -1}, "u <-> v"),
], ids=["maps", "bipartite"])
def test_cli_asymmetric_cached_row_exit_code(tmp_path, command, n, g2, moves, swap):
    # one unit moved between two coefficients: the row keeps its total and
    # its degree, and only the vertex-face (maps) or colour (bipartite)
    # symmetry catches it
    path = tmp_path / "counts.ndjson"
    model, flag = command.split()
    args = [model, flag, "--n-max", "5", "--cache", str(path)]
    assert CliRunner().invoke(main, args).exit_code == 0

    def edit(rec):
        for indices, by in moves.items():
            _bump(rec, indices, by)
    _edit_row(path, model, n, g2, edit)
    before = path.read_bytes()
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {path}: {model}[{n},{g2}]: cached row is not symmetric under {swap}\n"
    assert path.read_bytes() == before


# -- the loader reads every line exactly as json.loads does ---------------

def _reference_load(path):
    """json.loads and _parse_row on every line: records, or CacheError."""
    lines = path.read_bytes().decode(errors="replace").split("\n")
    rows = {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            if lineno < len(lines):
                raise CacheError(f"{path}:{lineno}: unparsable cache record") from None
            print(f"warning: dropping torn last line {lineno} of {path}", file=sys.stderr)
            break
        if lineno == 1:
            if not isinstance(obj, dict) or obj.get("format") != HEADER["format"]:
                raise CacheError(f"not a surfcount cache: {path}")
            if obj.get("version") != HEADER["version"]:
                raise CacheError(f"{path}: cache file of format version "
                                 f"{obj.get('version')}, not {HEADER['version']}: delete it")
            continue
        try:
            key, cells = _parse_row(obj)
        except ValueError as exc:
            raise CacheError(f"{path}:{lineno}: malformed cache record: {exc}") from None
        if rows.setdefault(key, cells) != cells:
            raise CacheError(f"{path}:{lineno}: {key[0]}[{key[1]},{key[2]}]: "
                             "row differs from an earlier line of it")
    return {(*key, indices): value for key, cells in rows.items()
            for indices, value in [*cells.items(), (None, sum(cells.values()))]}


def _escaped(s):
    return '"' + "".join(f"\\u{ord(c):04x}" for c in s) + '"'


def _with_n(text):
    # a spelling of n (or a new key n, in the header) that json.dumps never writes
    return lambda obj: json.dumps({**obj, "n": None}).replace("null", text).encode()


# each spelling turns a header or row dict into one line's bytes
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
    "non-ascii-value": lambda obj: json.dumps({**obj, "total": "\u0661\u0662"},
                                              ensure_ascii=False).encode(),
    "bom": lambda obj: "\ufeff".encode() + json.dumps(obj).encode(),
    "n-exponent": _with_n("1e2"),
    "n-true": _with_n("true"),
    "n-minus-zero": _with_n("-0"),
    "nan-value": lambda obj: json.dumps({**obj, "total": float("nan")}).encode(),
    "duplicate-keys": lambda obj: b'{"n": 7, ' + json.dumps(obj).encode()[1:],
    "duplicate-keys-last-bad": lambda obj: json.dumps(obj).encode()[:-1] + b', "g2": "1"}',
    "invalid-utf8": lambda obj: json.dumps({**obj, "x": "\xff"}).encode("latin-1"),
    "two-values": lambda obj: json.dumps(obj).encode() * 2,
    "torn": lambda obj: json.dumps(obj).encode()[:-1],
    "torn-in-key": lambda obj: json.dumps(obj).encode()[:12],
    "not-an-object": lambda obj: json.dumps(list(obj)).encode(),
    "whitespace-only": lambda obj: b" \t ",
}
_ROWS = [{"model": "maps", "n": 1, "g2": 0, "total": "2", "c": [1, 2, "1", 2, 1, "1"]},
         {"model": "maps", "n": 3, "g2": 1, "total": "14", "c": [2, 3, "12", 1, 1, "2"]},
         {"model": "bipartite", "n": 2, "g2": 1, "total": "1", "c": [1, 1, 1, "1"]}]
# a row for the end of the file, of neither model's view below
_LAST = {"model": "bipartite", "n": 4, "g2": 2, "total": "93", "c": [1, 2, 1, "90", 0, 0, 6, "3"]}


@pytest.mark.parametrize("place", ["header", "inner", "last", "last-newline"])
@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_load_reads_lines_as_json_loads(tmp_path, capsys, spelling, place):
    spell = _SPELLINGS[spelling]
    lines = [json.dumps(obj).encode() for obj in [HEADER] + _ROWS]
    if place == "header":
        lines[0] = spell(HEADER)
    elif place == "inner":
        lines[2] = spell(_ROWS[1])
    else:
        lines.append(spell(_LAST))
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
    # the line of a row below the top one
    k = next(k for k, line in enumerate(lines)
             if line.startswith(b'{"model": "%s", "n": 4, "g2": 1, ' % command.split()[0].encode()))
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
    # the line of one genus cell of row 5 goes: the warm run computes that
    # row again, writes only the missing cell, and prints the cold run
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
    # a warm run's rows come from the file's own lines: storing them
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

_MODELS = ("maps", "bipartite")


def _skipped(line, lineno, last, model, n_max):
    """The documented rule: an inner line that is a whole row with the
    canonical start, of another model or of n above n_max."""
    head = re.match('{"model": "([a-z-]+)", "n": (0|[1-9][0-9]*), "g2": (0|[1-9][0-9]*),',
                    line)
    return (1 < lineno < last and line.endswith("}") and head is not None
            and head[1] in _MODELS and (head[1] != model or int(head[2]) > n_max))


@pytest.mark.parametrize("place", ["header", "inner", "last", "last-newline", "other-model"])
@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_selective_load_reads_lines_as_json_loads(tmp_path, capsys, spelling, place):
    # the rows of maps with n <= 3 are those of the full load; a line the
    # request reads raises what the full load raises on it
    spell = _SPELLINGS[spelling]
    lines = [json.dumps(obj).encode() for obj in [HEADER] + _ROWS]
    if place == "header":
        lines[0] = spell(HEADER)
    elif place == "inner":
        lines[2] = spell(_ROWS[1])
    elif place == "other-model":
        lines[3] = spell(_ROWS[2])
    else:
        lines.append(spell(_LAST))
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
    # a file that starts with a row, not the header, is no cache, even
    # when that row is one a request would skip
    path = tmp_path / "counts.ndjson"
    path.write_text("".join(json.dumps(row) + "\n" for row in _ROWS[::-1]))
    with pytest.raises(CacheError, match="not a surfcount cache"):
        CountCache(path, "maps", 3)


def _maps_cache_with(path, line, last=False):
    """A maps --bivariate cache for n <= 4 with line put before its last
    row, or with last after it, without a newline; the line's number."""
    assert CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4",
                                     "--cache", str(path)]).exit_code == 0
    lines = path.read_text().splitlines()
    if last:
        path.write_text("\n".join(lines) + "\n" + line)
        return len(lines) + 1
    path.write_text("\n".join(lines[:-1] + [line, lines[-1]]) + "\n")
    return len(lines)


@pytest.mark.parametrize("line, error", [
    ('{"model": "bipartite", "n": 9, "g2": 0, "total": "1", "c": [1, 1, 1, "1"]',
     "unparsable cache record"),
    ('{"model": "bipartite", "n": "4", "g2": 0, "total": "1", "c": [1, 1, 1, "1"]}',
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
    ('{"model": "maps", "n": 3, "g2": 1, "total": "%s", "c": [2, 3, "1"]}' % _HUGE,
     "malformed cache record"),
    ('{"model": "maps", "n": %s, "g2": 1, "total": "1", "c": [2, 3, "1"]}' % _HUGE,
     "unparsable cache record"),
    ('{"model": "bipartite", "n": 3, "g2": %s, "total": "1", "c": [1, 1, 1, "1"]}' % _HUGE,
     "unparsable cache record"),
], ids=["value", "n", "g2-of-another-model"])
def test_cli_number_beyond_the_digit_limit_exit_code(tmp_path, line, error):
    # a line with a number too long for the canonical start is read by
    # json.loads, and is one stderr line, whatever its model
    path = tmp_path / "counts.ndjson"
    lineno = _maps_cache_with(path, line)
    res = CliRunner().invoke(main, ["maps", "--bivariate", "--n-max", "4",
                                    "--cache", str(path)])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and f":{lineno}: {error}" in res.stderr


def test_cli_torn_last_line_of_another_model_is_dropped_and_cut(tmp_path):
    path = tmp_path / "counts.ndjson"
    lineno = _maps_cache_with(path, '{"model": "bipartite", "n": 9, "g2": 0, "tot', last=True)
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
    CountCache(path).put_row("maps", 1, 0, H10, 2)
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


# -- the row writer and the files the CLI writes ----------------------------

_SMALL = st.integers(min_value=0, max_value=12)
_NATURALS = st.one_of(_SMALL, st.integers(min_value=0, max_value=10**30))


@st.composite
def _rows(draw):
    model = draw(st.sampled_from(_MODELS))
    index = st.integers(min_value=0, max_value=EXP_MAX)
    cells = draw(st.dictionaries(st.tuples(*[index] * ROW_WIDTH[model]),
                                 st.one_of(st.integers(1, 12), st.integers(1, 10**45)),
                                 max_size=6))
    return model, draw(_NATURALS), draw(_NATURALS), cells


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
@given(st.lists(_rows(), max_size=12, unique_by=lambda row: row[:3]), _SMALL)
def test_row_line_is_json_dumps(tmp_path_factory, rows, n_max):
    # every line the cache writes is what json.dumps writes for the row's
    # dict, and a file of them loads the same through every view and
    # through json.loads
    path = tmp_path_factory.getbasetemp() / "writer.ndjson"
    path.write_text(json.dumps(HEADER) + "\n")
    cache = CountCache(path)
    expected = [json.dumps(HEADER) + "\n"]
    for model, n, g2, cells in rows:
        poly = Poly.from_records(surfcount.cache._ORDER[model], cells)
        cache.put_row(model, n, g2, poly, sum(cells.values()))
        c = [x for indices, value in coefficient_records(model, poly)
             for x in (*indices, str(value))]
        expected.append(json.dumps({"model": model, "n": n, "g2": g2,
                                    "total": str(sum(cells.values())), "c": c}) + "\n")
    assert path.read_text() == "".join(expected)
    for got, reference in _views(path, [n_max]):
        assert got == reference


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
        "2bdd607132ebdbdae6f74a2c5557d2ead98cc735d2a4d50e98b775844c160b04")
