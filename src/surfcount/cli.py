"""Command-line interface.

Subcommands produce count tables (human table, CSV grid, or JSON records)
for each model, run the brute-force oracle, and evaluate the functional
identity checks.  Exit codes, each failure one stderr line:

- 0 success, 1 a verification failure;
- 2 a usage error, among them an `--edges` out of range and a request
  whose polynomials would hold a z or v exponent above 511
  (`poly.EXP_MAX`: only `bip-oneface --engine ode` at n >= 511 and very
  high `verify` orders reach it);
- 3 a count cache fault, the message naming the file and the line or
  row: an OS error on its path, reading or writing; a file of another
  format version (version 1 among them: the message says to delete it);
  a malformed line, a row no table reads (n = 0 or g2 > n) among them;
  or wrong rows: a row's coefficients do not sum to its total, two
  lines of one row differ, a served row is not homogeneous or not
  symmetric, a served planar row does not sum to `anchors.planar`, the
  served rows of every genus of one n do not sum to `anchors.total`, a
  cached row differs from the table's (a seed, or a cell of a row the
  fill recomputed), or a fill started from cached rows fails an
  integrality check.  A fill with no cached row loaded that fails one is
  no cache fault: its IntegralityError propagates.

Only `maps --bivariate`, `maps --engine cc|both` and `bipartite
--trivariate` use the cache, one line per row, and each reads only the
rows of its own model up to its `--n-max`; the other table commands
take `--cache` and `--no-cache` and ignore them.
"""

from __future__ import annotations

import json
import sys

import click

from .bipartite import BipOneFaceTable, BipTable
from .cache import ROW_WIDTH, CountCache, coefficient_records, default_cache_path
from .errors import CacheError, ExponentRangeError, IntegralityError, WindowError
from .genus import genus_label, parse_genus
from .identities import IDENTITIES, oneface_ode_fill, run_identity
from .maps import MapsCounts, MapsTable, OneFaceTable
from .oracle import MAX_EDGES, scan
from .triangulations import TriTable


def format_option(fn):
    return click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
                        default="table", show_default=True, help="output format")(fn)


def n_max_option(text=None):
    return click.option("--n-max", type=click.IntRange(min=0), required=True, help=text)


def cache_options(fn):
    fn = click.option("--cache", "cache_path", type=click.Path(dir_okay=False),
                      default=None, help="count cache file (default: user cache dir); "
                      "holds polynomial rows only, so maps without --bivariate or "
                      "--engine, bipartite without --trivariate, triangulations, "
                      "oneface and bip-oneface ignore it")(fn)
    fn = click.option("--no-cache", is_flag=True, help="disable the count cache")(fn)
    return fn


def _echo(message, err=False):
    # An explicit file keeps click from caching a wrapper keyed on the
    # current stdout; with a redirected stdout (tests, in-process callers)
    # that cache entry keeps the whole output alive.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fill_rows(model, tables, n_max, g2_max, cache_path, no_cache):
    """Fill polynomial tables and return the last, the one the count cache serves.

    The tables before it are independent checks (engine kz under
    `--engine both`): a row of one that differs from the last table's is
    one stderr line, exit code 1.  The last table starts from the
    rows the cache holds where it has none, and only once every check
    has passed are its new rows stored.  A cache file that cannot be
    read or written, a cached row that is wrong, a fill from cached rows
    that fails an integrality check, or a row the file holds that
    differs from the table's, is one stderr line, exit code 3.
    """
    *checks, tab = tables
    # the cache reads the rows of model that this run loads or stores: up
    # to n_max, and the seed rows
    rows = max([n_max] + [n for n, _ in tab.entries])
    try:
        cache = None if no_cache else CountCache(cache_path or default_cache_path(), model, rows)
        for check in checks:
            check.fill(n_max, g2_max)
        seeds = len(tab.entries)
        if cache:
            cache.load(tab.entries, n_max)
        loaded = len(tab.entries) > seeds
        try:
            tab.fill(n_max, g2_max)
        except IntegralityError as exc:
            if not loaded:
                raise
            raise CacheError(f"{cache.path}: cached counts break the recurrence at {exc}")
        for check in checks:
            for n in range(1, n_max + 1):
                for g2 in range(g2_max + 1):
                    if check.poly(n, g2) != tab.poly(n, g2):
                        _echo(f"engine mismatch at n={n}, g={genus_label(g2)}", err=True)
                        sys.exit(1)
        if cache:
            cache.store(tab.entries)
    except CacheError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(3)
    return tab


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ExponentRangeError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Exact counts of rooted maps on surfaces, orientable or not."""


def _genus_top(g_max, reach):
    """The largest g2 to print: --g-max read exactly, capped at reach, the
    largest g2 the table has at its --n-max."""
    if g_max is None:
        return reach
    try:
        return min(parse_genus(g_max), reach)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit_text(header, rows, fmt):
    """header: the column names; rows: tuples of ints, one line each.  CSV,
    or a table right-aligned to each column's longest entry."""
    if fmt == "csv":
        line = ",".join(["%s"] * len(header))
    else:
        # the longest entry of a column of ints is its largest or smallest
        widths = ([max(len(name), len(str(max(col))), len(str(min(col))))
                   for name, col in zip(header, zip(*rows))] if rows else map(len, header))
        line = "  ".join([f"%{w}s" for w in widths])
    _echo("\n".join([line % tuple(header), *[line % row for row in rows]]))


def _emit_grid(model, value, n_max, g2_max, fmt):
    """value(n, g2) for n in 1..n_max and g2 in 0..g2_max, a row per n."""
    ns, genera = range(1, n_max + 1), range(g2_max + 1)
    if fmt == "json":
        _emit_records(model, [(n, g2, value(n, g2)) for n in ns for g2 in genera], fmt, 0)
        return
    _emit_text(["n"] + [f"g={genus_label(g2)}" for g2 in genera],
               [(n, *[value(n, g2) for g2 in genera]) for n in ns], fmt)


# the keys of a record's indices, in order
INDEX_NAMES = "ijk"


def _emit_records(model, rows, fmt, width):
    """rows: (n, g2, *indices, value), one record each, with `width` indices."""
    keys = ["n", "g2", *INDEX_NAMES[:width]]
    if fmt == "json":
        # json.dumps of {"model": model, "rows": records}, each record
        # model, n, g2, the indices as i, j, k, then value as a string
        fields = "".join(f', "{key}": %s' for key in keys)
        record = f'{{"model": "{model}"{fields}, "value": "%s"}}'
        _echo(f'{{"model": "{model}", "rows": [{", ".join([record % row for row in rows])}]}}')
        return
    _emit_text(keys + ["value"], rows, fmt)


def _emit_rows(model, tab, n_max, g2_max, fmt, coefficients):
    """A polynomial table's counts as a grid, or with coefficients one
    record per coefficient of each row."""
    if not coefficients:
        _emit_grid(model, tab.count, n_max, g2_max, fmt)
        return
    rows = [(n, g2, *indices, c)
            for n in range(1, n_max + 1) for g2 in range(g2_max + 1)
            for indices, c in coefficient_records(model, tab.poly(n, g2))]
    _emit_records(model, rows, fmt, ROW_WIDTH[model])


@main.command("maps")
@n_max_option()
@click.option("--g-max", type=str, default=None, help="max genus, e.g. 4 or 7/2")
@click.option("--bivariate", is_flag=True, help="emit vertex/face coefficients")
@click.option("--engine", type=click.Choice(["kz", "cc", "both"]), default=None,
              help="bivariate recurrence engine (default: integer fast path)")
@format_option
@cache_options
def maps_cmd(n_max, g_max, bivariate, engine, fmt, cache_path, no_cache):
    """Rooted maps by edge count and genus."""
    top = _genus_top(g_max, n_max)
    if engine is None and not bivariate:
        _emit_grid("maps", MapsCounts().fill(n_max, top).value, n_max, top, fmt)
        return
    engines = ["kz", "cc"] if engine == "both" else [engine or "cc"]
    # only engine cc meets the cache; kz stays an independent check
    tab = _fill_rows("maps", [MapsTable(e) for e in engines], n_max, top,
                     cache_path, no_cache or engines == ["kz"])
    _emit_rows("maps", tab, n_max, top, fmt, bivariate)


@main.command("bipartite")
@n_max_option()
@click.option("--g-max", type=str, default=None)
@click.option("--trivariate", is_flag=True, help="emit colour/face coefficients")
@format_option
@cache_options
def bipartite_cmd(n_max, g_max, trivariate, fmt, cache_path, no_cache):
    """Rooted bipartite maps by edge count and genus."""
    top = _genus_top(g_max, n_max)
    if not trivariate:
        # the counts are the table at v = u: no cached row holds it, and it
        # fills in a fraction of the trivariate table's time
        _emit_grid("bipartite", BipTable(v_is_u=True).fill(n_max, top).count, n_max, top, fmt)
        return
    tab = _fill_rows("bipartite", [BipTable()], n_max, top, cache_path, no_cache)
    _emit_rows("bipartite", tab, n_max, top, fmt, True)


@main.command("triangulations")
@n_max_option("max half-face-count n (2n faces)")
@click.option("--g-max", type=str, default=None)
@format_option
@cache_options
def triangulations_cmd(n_max, g_max, fmt, cache_path, no_cache):
    """Rooted triangulations with 2n faces by genus."""
    top = _genus_top(g_max, n_max + 1)
    _emit_grid("triangulations", TriTable().fill(n_max, top).value, n_max, top, fmt)


def _oneface_fill(model, table, n_max, engine, label):
    """The one-face table filled by its recurrence (no engine), by its ODE
    (engine ode), or by both: a cell where they differ is one stderr line,
    exit code 1.  label(*cell) names the cell."""
    tab = oneface_ode_fill(model, n_max) if engine == "ode" else table().fill(n_max)
    if engine == "both":
        ode = oneface_ode_fill(model, n_max).entries
        for cell in sorted(tab.entries.keys() | ode.keys()):
            if tab.entries.get(cell, 0) != ode.get(cell, 0):
                _echo(f"engine mismatch at {label(*cell)}", err=True)
                sys.exit(1)
    return tab


def oneface_engine_option(fn):
    return click.option("--engine", type=click.Choice(["ode", "both"]), default=None,
                        help="fill from the one-face ODE, or compare it with the "
                        "default recurrence")(fn)


@main.command("oneface")
@n_max_option()
@oneface_engine_option
@format_option
@cache_options
def oneface_cmd(n_max, engine, fmt, cache_path, no_cache):
    """Rooted one-face maps by edge count and genus."""
    tab = _oneface_fill("oneface", OneFaceTable, n_max, engine,
                        lambda n, g2: f"n={n}, g={genus_label(g2)}")
    _emit_grid("oneface", tab.value, n_max, n_max, fmt)


@main.command("bip-oneface")
@n_max_option()
@oneface_engine_option
@format_option
@cache_options
def bip_oneface_cmd(n_max, engine, fmt, cache_path, no_cache):
    """Rooted one-face bipartite maps by edges and vertex colours."""
    tab = _oneface_fill("bip-oneface", BipOneFaceTable, n_max, engine,
                        lambda n, i, j: f"n={n}, i={i}, j={j}")
    entries = tab.entries
    rows = [(n, n + 1 - i - j, i, j, entries[n, i, j])
            for n in range(1, n_max + 1) for i, j in tab.row_cells(n)]
    _emit_records("bip-oneface", rows, fmt, 2)


@main.command("verify")
@click.argument("identity", required=False)
@click.option("--all", "run_all", is_flag=True,
              help="run every identity at its default order")
@click.option("--order", type=int, default=None, help="t-order to verify to")
@format_option
def verify_cmd(identity, run_all, order, fmt):
    """Evaluate a functional identity's residual on truncated series.

    Known identities: shifted-bkp1, ode-maps, ode-bipartite,
    ode-triangulations, ode-oneface-maps, ode-oneface-bipartite,
    fixed-charge.  With --all, every one of them runs at its default
    order, one report each, and the exit code is 1 if any fails.
    """
    if run_all == (identity is not None):
        raise click.UsageError("give one identity or --all")
    if run_all and order is not None:
        raise click.UsageError("--all runs every identity at its default order; "
                               "--order needs one identity")
    if identity is not None and identity not in IDENTITIES:
        raise click.UsageError(
            f"unknown identity {identity!r}; choose from {', '.join(sorted(IDENTITIES))}"
        )
    failed = False
    for k, name in enumerate(IDENTITIES if run_all else [identity]):
        try:
            report = run_identity(name, order)
        except WindowError as exc:
            raise click.UsageError(str(exc))
        failed |= report.status != "pass"
        if fmt == "json":
            _echo(json.dumps(report.as_dict()))
            continue
        if k:
            _echo("")
        _echo(f"identity: {report.identity} (model {report.model})")
        _echo(f"requested order: {report.requested_order}")
        _echo(f"usable window: t^{report.window[0]} .. t^{report.window[1]}")
        _echo(f"status: {report.status.upper()}")
        if report.first_failure:
            _echo(f"first failing coefficient: t^{report.first_failure['order']}: "
                  f"{report.first_failure['coefficient']}")
    sys.exit(1 if failed else 0)


@main.command("oracle",
              help=f"Brute-force enumeration via flag involutions (up to {MAX_EDGES} edges).")
@click.option("--edges", type=int, required=True)
@click.option("--filter", "model_filter",
              type=click.Choice(["bipartite", "triangulation"]), default=None)
@format_option
def oracle_cmd(edges, model_filter, fmt):
    if not (1 <= edges <= MAX_EDGES):
        raise click.UsageError(f"--edges must be between 1 and {MAX_EDGES}")
    if model_filter == "triangulation" and edges % 3:
        raise click.UsageError("triangulations need an edge count divisible by 3")
    result = scan(edges)
    if model_filter == "triangulation":
        rows = [(edges // 3, g2, c) for g2, c in sorted(result["triangulations"].items())]
        _emit_records("triangulations", rows, fmt, 0)
        return
    model = model_filter or "maps"
    # keyed by vertex counts then faces, the record indices: by Euler's
    # formula g2 = 2 + edges - their sum
    rows = [(edges, 2 + edges - sum(key), *key, c) for key, c in sorted(result[model].items())]
    _emit_records(model, rows, fmt, ROW_WIDTH[model])


if __name__ == "__main__":
    main()
