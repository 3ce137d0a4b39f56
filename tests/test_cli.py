import gc
import io
import json
import weakref
from contextlib import redirect_stdout

import pytest
from click.testing import CliRunner

import surfcount.bipartite
import surfcount.cli
import surfcount.maps
import surfcount.poly
from surfcount.cli import _emit_records, _emit_rows, main
from surfcount.oracle import MAX_EDGES
from surfcount.poly import Poly


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_maps_csv_cell(runner):
    res = invoke(runner, ["maps", "--n-max", "4", "--g-max", "2", "--format", "csv", "--no-cache"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,g=0,g=1/2,g=1,g=3/2,g=2"
    row4 = lines[4].split(",")
    assert row4[0] == "4" and row4[-1] == "509"


def test_maps_empty_table(runner):
    res = invoke(runner, ["maps", "--n-max", "0", "--no-cache", "--format", "csv"])
    assert res.exit_code == 0
    assert res.output.strip().splitlines() == ["n,g=0"]


def test_fractional_genus_bound(runner):
    res = invoke(runner, ["maps", "--n-max", "3", "--g-max", "3/2",
                          "--format", "csv", "--no-cache"])
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,g=0,g=1/2,g=1,g=3/2"
    assert lines[3] == "3,54,98,104,41"
    res = runner.invoke(main, ["maps", "--n-max", "3", "--g-max", "5/3", "--no-cache"])
    assert res.exit_code == 2


@pytest.mark.parametrize("g_max, error", [
    ("0.5000000001", "genus must be a half-integer: '0.5000000001'"),
    ("1.5e400", "genus must be written n, n/2 or n.d: '1.5e400'"),
])
def test_genus_bound_not_a_half_integer(runner, g_max, error):
    res = runner.invoke(main, ["maps", "--n-max", "3", "--g-max", g_max, "--no-cache"])
    assert res.exit_code == 2
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert [line for line in res.stderr.splitlines() if line.startswith("Error")] == [f"Error: {error}"]


@pytest.mark.parametrize("command, reach, above", [
    ("maps", "1", "4"),                  # g2 <= n_max
    ("maps --bivariate", "1", "200000"),
    ("bipartite", "1", "7/2"),
    ("triangulations", "3/2", "200000"),  # g2 <= n_max + 1
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_genus_bound_above_reach_is_capped(runner, command, reach, above, fmt):
    # no column past the largest genus the table reaches at --n-max 2
    args = command.split() + ["--n-max", "2", "--format", fmt, "--no-cache", "--g-max"]
    at_reach = invoke(runner, args + [reach])
    assert at_reach.exit_code == 0
    assert invoke(runner, args + [above]).stdout_bytes == at_reach.stdout_bytes


@pytest.mark.parametrize("command", ["maps", "bipartite", "triangulations", "oneface",
                                     "bip-oneface"])
def test_negative_n_max_is_a_usage_error(runner, command):
    res = runner.invoke(main, [command, "--n-max", "-1", "--no-cache"])
    assert res.exit_code == 2
    assert res.stdout == "" and "--n-max" in res.stderr


def test_formats_agree(runner):
    base = ["maps", "--n-max", "5", "--g-max", "2", "--no-cache"]
    as_json = json.loads(invoke(runner, base + ["--format", "json"]).output)
    as_csv = invoke(runner, base + ["--format", "csv"]).output.strip().splitlines()
    as_table = invoke(runner, base + ["--format", "table"]).output.strip().splitlines()
    json_vals = {(r["n"], r["g2"]): int(r["value"]) for r in as_json["rows"]}
    for n, *cells in [line.split(",") for line in as_csv[1:]] + [line.split() for line in as_table[1:]]:
        for g2, cell in enumerate(cells):
            assert json_vals[(int(n), g2)] == int(cell)


def test_engine_choices_agree(runner):
    out = {}
    for engine in ("kz", "cc", "both"):
        res = invoke(runner, ["maps", "--n-max", "6", "--engine", engine,
                              "--format", "json", "--no-cache"])
        assert res.exit_code == 0
        out[engine] = res.output
    assert out["kz"] == out["cc"] == out["both"]
    # and the fast path agrees with the engines
    fast = invoke(runner, ["maps", "--n-max", "6", "--format", "json", "--no-cache"])
    assert json.loads(fast.output) == json.loads(out["cc"])


def test_bivariate_output(runner):
    res = invoke(runner, ["maps", "--n-max", "3", "--bivariate", "--format", "json", "--no-cache"])
    rows = json.loads(res.output)["rows"]
    vals = {(r["n"], r["g2"], r["i"], r["j"]): int(r["value"]) for r in rows}
    assert vals[(3, 0, 2, 3)] == 22
    assert vals[(1, 1, 1, 1)] == 1


def test_trivariate_output(runner):
    res = invoke(runner, ["bipartite", "--n-max", "3", "--trivariate", "--format", "json", "--no-cache"])
    rows = json.loads(res.output)["rows"]
    vals = {(r["n"], r["g2"], r["i"], r["j"], r["k"]): int(r["value"]) for r in rows}
    assert vals[(1, 0, 1, 1, 1)] == 1
    assert sum(v for (n, g2, *_), v in zip(vals.keys(), vals.values()) if n == 3 and g2 == 2) == 4


def test_triangulations_and_oneface(runner):
    res = invoke(runner, ["triangulations", "--n-max", "3", "--g-max", "2", "--format", "csv", "--no-cache"])
    lines = res.output.strip().splitlines()
    assert lines[3].split(",") == ["3", "336", "1773", "4900", "6786", "3885"]
    res = invoke(runner, ["oneface", "--n-max", "4", "--format", "csv", "--no-cache"])
    assert "93" in res.output


def test_bip_oneface(runner):
    res = invoke(runner, ["bip-oneface", "--n-max", "4", "--format", "json", "--no-cache"])
    rows = json.loads(res.output)["rows"]
    vals = {(r["n"], r["i"], r["j"]): int(r["value"]) for r in rows}
    assert vals[(4, 1, 1)] == 20 and vals[(4, 2, 2)] == 17


@pytest.mark.parametrize("command, n_top", [("oneface", 30), ("bip-oneface", 20)])
def test_oneface_engines_print_the_same_bytes(runner, command, n_top):
    # seeds only, the first filled row, and every format at the top
    for n, fmt in [(0, "table"), (3, "csv"), (4, "json"),
                   (n_top, "table"), (n_top, "csv"), (n_top, "json")]:
        args = [command, "--n-max", str(n), "--format", fmt, "--no-cache"]
        default = invoke(runner, args).stdout_bytes
        for engine in ("ode", "both"):
            assert invoke(runner, args + ["--engine", engine]).stdout_bytes == default


@pytest.mark.parametrize("command, step, cell, where", [
    ("oneface", "ledoux", (5, 2), "n=5, g=1"),
    ("bip-oneface", "bip_oneface", (5, 2, 1), "n=5, i=2, j=1"),
])
def test_oneface_engine_mismatch(runner, monkeypatch, command, step, cell, where):
    module = surfcount.maps if command == "oneface" else surfcount.bipartite
    hand = getattr(module, step)
    # the cell's place in the step's row
    place = cell[1] if command == "oneface" else list(
        module.BipOneFaceTable.row_cells(5)).index(cell[1:])

    def one_more(n, *rows):
        # the step's totals are n + 1 times the row
        totals = hand(n, *rows)
        if n == cell[0]:
            totals[place] += n + 1
        return totals
    monkeypatch.setattr(module, step, one_more)
    res = runner.invoke(main, [command, "--n-max", "5", "--engine", "both", "--no-cache"])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == f"engine mismatch at {where}\n"


def test_verify_pass_and_fail_codes(runner):
    res = runner.invoke(main, ["verify", "ode-maps", "--order", "16"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    res = runner.invoke(main, ["verify", "ode-oneface-maps", "--order", "8"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    res = runner.invoke(main, ["verify", "ode-oneface-maps", "--order", "8",
                               "--format", "json"])
    rep = json.loads(res.output)
    assert rep["status"] == "pass" and rep["requested_order"] == 8


def test_verify_usage_errors(runner):
    res = runner.invoke(main, ["verify", "no-such-identity"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "ode-maps", "--order", "0"])
    assert res.exit_code == 2


def test_verify_all(runner):
    from surfcount.identities import IDENTITIES

    res = runner.invoke(main, ["verify", "--all", "--format", "json"])
    assert res.exit_code == 0
    reports = [json.loads(line) for line in res.output.splitlines()]
    assert [(r["identity"], r["requested_order"]) for r in reports] == \
        [(name, spec[1]) for name, spec in IDENTITIES.items()]
    assert all(r["status"] == "pass" for r in reports)
    for args in (["verify"], ["verify", "ode-maps", "--all"],
                 ["verify", "--all", "--order", "8"]):
        assert runner.invoke(main, args).exit_code == 2


def test_verify_all_fails_if_one_fails(runner, monkeypatch):
    from surfcount.identities import VerifyReport

    def fake(name, order=None):
        bad = name == "ode-maps"
        return VerifyReport(name, "maps", 4, (0, 4), "fail" if bad else "pass",
                            {"order": 3, "coefficient": "u"} if bad else None)

    monkeypatch.setattr(surfcount.cli, "run_identity", fake)
    res = runner.invoke(main, ["verify", "--all"])
    assert res.exit_code == 1
    blocks = res.output.split("\n\n")
    assert len(blocks) == 7 and "status: FAIL" in blocks[1]
    assert "first failing coefficient: t^3: u" in blocks[1]


@pytest.mark.parametrize("args", [["bip-oneface", "--engine", "ode", "--n-max", "6"],
                                  ["verify", "ode-oneface-bipartite", "--order", "8"]])
def test_exponent_out_of_range_is_a_usage_error(runner, monkeypatch, args):
    # with the range cut to 0..3 (guard bit 2 of the z and v fields), the
    # v exponents of the one-face bipartite polynomials pass it
    assert invoke(runner, args).exit_code == 0
    monkeypatch.setattr(surfcount.poly, "EXP_MAX", 3)
    monkeypatch.setattr(surfcount.poly, "_GUARD", 4 << 10 | 4)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("error: ") and "above 3 is out of range" in res.stderr


def test_oracle_cli(runner):
    res = invoke(runner, ["oracle", "--edges", "2", "--format", "json"])
    rows = json.loads(res.output)["rows"]
    vals = {(r["i"], r["j"]): int(r["value"]) for r in rows}
    assert vals[(2, 2)] == 5
    res = runner.invoke(main, ["oracle", "--edges", str(MAX_EDGES + 1)])
    assert res.exit_code == 2
    assert f"--edges must be between 1 and {MAX_EDGES}" in res.output
    res = runner.invoke(main, ["oracle", "--edges", "2", "--filter", "triangulation"])
    assert res.exit_code == 2


def test_cache_hit_byte_identical(runner, tmp_path):
    cache = str(tmp_path / "counts.ndjson")
    args = ["maps", "--bivariate", "--n-max", "6", "--g-max", "2", "--format", "csv",
            "--cache", cache]
    cold = invoke(runner, args)
    size_after_cold = len((tmp_path / "counts.ndjson").read_text())
    warm = invoke(runner, args)
    assert cold.output == warm.output
    # warm run appended nothing
    assert len((tmp_path / "counts.ndjson").read_text()) == size_after_cold


def test_cache_bivariate_round_trip(runner, tmp_path):
    cache = str(tmp_path / "counts.ndjson")
    args = ["maps", "--n-max", "5", "--engine", "cc", "--format", "json", "--cache", cache]
    cold = invoke(runner, args)
    warm = invoke(runner, args)
    assert cold.output == warm.output


def test_cache_trivariate_round_trip(runner, tmp_path):
    cache = str(tmp_path / "counts.ndjson")
    args = ["bipartite", "--n-max", "5", "--trivariate", "--format", "json", "--cache", cache]
    cold = invoke(runner, args)
    warm = invoke(runner, args)
    assert cold.output == warm.output
    no_cache = invoke(runner, ["bipartite", "--n-max", "5", "--trivariate",
                               "--format", "json", "--no-cache"])
    assert warm.output == no_cache.output


def test_redirected_stdout_is_released():
    buf = io.StringIO()
    with redirect_stdout(buf):
        main.main(["maps", "--n-max", "3", "--no-cache"], standalone_mode=False)
    assert buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None, "stream retained"


def test_bivariate_cache_warms_after_scalar_run(runner, tmp_path, monkeypatch):
    cache = str(tmp_path / "counts.ndjson")
    args = ["maps", "--n-max", "6", "--bivariate", "--format", "json"]
    invoke(runner, ["maps", "--n-max", "6", "--cache", cache])
    invoke(runner, args + ["--cache", cache])
    no_cache = invoke(runner, args + ["--no-cache"])

    def recompute(*_):
        raise AssertionError("cached row recomputed")
    monkeypatch.setattr(surfcount.maps, "_row_cc", recompute)
    warm = invoke(runner, args + ["--cache", cache])
    assert warm.exit_code == 0
    assert warm.output == no_cache.output


def test_cache_options_only_on_table_commands(runner, tmp_path):
    cache = tmp_path / "counts.ndjson"
    for args in (["oracle", "--edges", "1"], ["verify", "ode-maps", "--order", "4"]):
        res = runner.invoke(main, args + ["--cache", str(cache)])
        assert res.exit_code == 2
        assert not cache.exists()
        assert runner.invoke(main, args + ["--no-cache"]).exit_code == 2


# -- the coefficient output, against the builders it replaced -------------

def _reference_records(model, rows, fmt, width):
    """rows: (n, g2, indices, value): a dict per JSON record through
    json.dumps, or rows of strings right-aligned or joined by commas."""
    if fmt == "json":
        records = []
        for n, g2, indices, value in rows:
            rec = {"model": model, "n": n, "g2": g2}
            rec.update(zip("ijk", indices))
            rec["value"] = str(value)
            records.append(rec)
        return json.dumps({"model": model, "rows": records}) + "\n"
    lines = [["n", "g2", *"ijk"[:width], "value"]] + [
        [str(n), str(g2), *map(str, indices), str(value)] for n, g2, indices, value in rows]
    if fmt == "csv":
        return "\n".join(",".join(line) for line in lines) + "\n"
    line = "  ".join(f"{{:>{max(map(len, col))}}}" for col in zip(*lines))
    return "\n".join(line.format(*row) for row in lines) + "\n"


_BIG = 3 ** 90   # 43 digits
_OUTPUT_ROWS = {
    "empty": [],
    "one-cell": [(1, 0, 2)],
    "many": [(1, 0, 2), (12, 3, _BIG), (3, 11, 0), (130, 2, _BIG * 7 + 1)],
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("rows", _OUTPUT_ROWS)
@pytest.mark.parametrize("model, width", [("triangulations", 0), ("bip-oneface", 2),
                                          ("bipartite", 3)])
def test_records_print_as_their_dicts_and_strings(capsys, model, width, rows, fmt):
    # a row (n, g2, value) of the cases gets indices 10 + n, 11 + n, ...
    rows = [(n, g2, tuple(range(10 + n, 10 + n + width)), value)
            for n, g2, value in _OUTPUT_ROWS[rows]]
    _emit_records(model, [(n, g2, *indices, value) for n, g2, indices, value in rows],
                  fmt, width)
    assert capsys.readouterr().out == _reference_records(model, rows, fmt, width)


class _Rows:
    """A polynomial table with given rows, zero elsewhere."""

    def __init__(self, rows):
        self.rows = rows

    def poly(self, n, g2):
        return self.rows.get((n, g2), Poly.zero())


# exponents (u, z, v) as record indices: maps (u, z), bipartite (u, v, z)
_INDICES = {"maps": lambda e: (e[0], e[1]), "bipartite": lambda e: (e[0], e[2], e[1])}
_TABLES = {
    # (u, z, v); maps rows take z + v for z, which keeps these cells apart
    "empty": (0, 0, {}),
    "one-cell": (1, 0, {(1, 0): {(2, 1, 0): _BIG}}),
    "many": (3, 2, {(1, 0): {(2, 1, 0): 1, (1, 1, 1): _BIG},
                    (3, 1): {(0, 2, 2): 5, (3, 0, 1): _BIG * 3, (2, 2, 0): 4, (1, 1, 2): 6},
                    (3, 2): {(1, 1, 1): 1}}),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("table", _TABLES)
@pytest.mark.parametrize("model", ["maps", "bipartite"])
def test_coefficients_print_as_their_dicts_and_strings(capsys, model, table, fmt):
    n_max, g2_max, cells = _TABLES[table]
    if model == "maps":
        cells = {key: {(u, z + v, 0): c for (u, z, v), c in row.items()}
                 for key, row in cells.items()}
    tab = _Rows({key: Poly.from_terms(row) for key, row in cells.items()})
    _emit_rows(model, tab, n_max, g2_max, fmt, True)
    rows = [(n, g2, _INDICES[model](exps), c)
            for n in range(1, n_max + 1) for g2 in range(g2_max + 1)
            for exps, c in sorted(tab.poly(n, g2).int_items())]
    width = 2 if model == "maps" else 3
    assert capsys.readouterr().out == _reference_records(model, rows, fmt, width)
