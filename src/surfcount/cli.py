"""Command-line interface.

Subcommands produce count tables (human table, CSV grid, or JSON records)
for each model, run the brute-force oracle, and evaluate the functional
identity checks.  Exit code 0 on success, 1 on a verification failure,
2 on usage errors, 3 when the count cache file cannot be read or holds
a malformed record (a one-line message on stderr names the file and
line) or when the polynomial rows in it are wrong: a cached row differs
from one of the table's seed rows, a fill from cached rows fails an
integrality check, or a stored coefficient or total differs from the
value its recomputed row gives (the message names the file and the
row).  Only `maps --bivariate`, `maps --engine cc|both` and `bipartite`
use the cache; the other table commands take `--cache` and `--no-cache`
and ignore them.
"""

from __future__ import annotations

import json
import sys

import click

from .bipartite import BipOneFaceTable, BipTable
from .cache import CountCache, CountRecord, default_cache_path
from .errors import CacheError, IntegralityError, WindowError
from .genus import genus_label, parse_genus
from .identities import IDENTITIES, run_identity
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
                      "--engine, triangulations, oneface and bip-oneface ignore it")(fn)
    fn = click.option("--no-cache", is_flag=True, help="disable the count cache")(fn)
    return fn


def _echo(message, err=False):
    # An explicit file keeps click from caching a wrapper keyed on the
    # current stdout; with a redirected stdout (tests, in-process callers)
    # that cache entry keeps the whole output alive.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def open_cache(cache_path, no_cache) -> CountCache | None:
    if no_cache:
        return None
    try:
        return CountCache(cache_path or default_cache_path())
    except CacheError as exc:
        _cache_error(exc)


def _cache_error(message):
    _echo(f"error: {message}", err=True)
    sys.exit(3)


def _fill(cache, model, tab, n_max, g2_max):
    """Fill a polynomial table, starting from the complete rows the cache holds.

    A cached row that differs from one of the table's seed rows, or a
    fill from cached rows that fails the recurrence's integrality check,
    means a corrupted cache: one stderr line, exit code 3.
    """
    if not cache:
        return tab.fill(n_max, g2_max)
    seeds = len(tab.entries)
    try:
        cache.load(model, tab.entries, n_max)
    except CacheError as exc:
        _cache_error(exc)
    try:
        return tab.fill(n_max, g2_max)
    except IntegralityError as exc:
        if len(tab.entries) == seeds:
            raise
        _cache_error(f"{cache.path}: cached counts break the recurrence at {exc}")


def _store(cache, model, tab):
    """Append the table's new records; a stored record that differs from
    its recomputed value is one stderr line, exit code 3."""
    if cache:
        try:
            cache.store(model, tab.entries)
        except CacheError as exc:
            _cache_error(exc)


@click.group()
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


def _emit_json(model, records):
    _echo(json.dumps({"model": model, "rows": records}))


def _emit_text(header, lines, fmt):
    """header and lines are rows of strings: CSV, or a right-aligned table."""
    rows = [header] + lines
    if fmt == "csv":
        _echo("\n".join(",".join(row) for row in rows))
        return
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    _echo("\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows))


def _emit_grid(model, rows, n_max, g2_max, fmt):
    """rows: {(n, g2): int} covering 1..n_max, 0..g2_max."""
    genera = list(range(g2_max + 1))
    if fmt == "json":
        _emit_json(model, [CountRecord(model, n, g2, rows[(n, g2)]).as_dict()
                           for n in range(1, n_max + 1) for g2 in genera])
        return
    _emit_text(["n"] + [f"g={genus_label(g2)}" for g2 in genera],
               [[str(n)] + [str(rows[(n, g2)]) for g2 in genera] for n in range(1, n_max + 1)],
               fmt)


def _emit_records(model, records, fmt, columns):
    """records: list of dicts with the given columns (value last)."""
    if fmt == "json":
        _emit_json(model, records)
        return
    _emit_text(list(columns), [[str(r.get(c, "")) for c in columns] for r in records], fmt)


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
        counts = MapsCounts().fill(n_max, top)
        rows = {(n, g2): counts.value(n, g2)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        _emit_grid("maps", rows, n_max, top, fmt)
        return
    engine = engine or "cc"
    # only engine cc meets the cache; kz stays an independent check
    cache = None if engine == "kz" else open_cache(cache_path, no_cache)
    tables = [_fill(cache if eng == "cc" else None, "maps", MapsTable(eng), n_max, top)
              for eng in (["kz", "cc"] if engine == "both" else [engine])]
    if engine == "both":
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                if tables[0].poly(n, g2) != tables[1].poly(n, g2):
                    _echo(f"engine mismatch at n={n}, g={genus_label(g2)}", err=True)
                    sys.exit(1)
    tab = tables[-1]
    _store(cache, "maps", tab)
    if bivariate:
        records = []
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                for (i, j, _), c in sorted(tab.poly(n, g2).int_items()):
                    records.append({"model": "maps", "n": n, "g2": g2,
                                    "i": i, "j": j, "value": str(c)})
        _emit_records("maps", records, fmt, ["n", "g2", "i", "j", "value"])
    else:
        rows = {(n, g2): (tab.count(n, g2) if g2 <= n else 0)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        _emit_grid("maps", rows, n_max, top, fmt)


@main.command("bipartite")
@n_max_option()
@click.option("--g-max", type=str, default=None)
@click.option("--trivariate", is_flag=True, help="emit colour/face coefficients")
@format_option
@cache_options
def bipartite_cmd(n_max, g_max, trivariate, fmt, cache_path, no_cache):
    """Rooted bipartite maps by edge count and genus."""
    top = _genus_top(g_max, n_max)
    cache = open_cache(cache_path, no_cache)
    tab = _fill(cache, "bipartite", BipTable(), n_max, top)
    _store(cache, "bipartite", tab)
    if trivariate:
        records = []
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                for (i, k, j), c in sorted(tab.poly(n, g2).int_items()):
                    records.append({"model": "bipartite", "n": n, "g2": g2,
                                    "i": i, "j": j, "k": k, "value": str(c)})
        _emit_records("bipartite", records, fmt, ["n", "g2", "i", "j", "k", "value"])
    else:
        rows = {(n, g2): (tab.count(n, g2) if g2 <= n else 0)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        _emit_grid("bipartite", rows, n_max, top, fmt)


@main.command("triangulations")
@n_max_option("max half-face-count n (2n faces)")
@click.option("--g-max", type=str, default=None)
@format_option
@cache_options
def triangulations_cmd(n_max, g_max, fmt, cache_path, no_cache):
    """Rooted triangulations with 2n faces by genus."""
    top = _genus_top(g_max, n_max + 1)
    tab = TriTable().fill(n_max, top)
    rows = {(n, g2): tab.value(n, g2)
            for n in range(1, n_max + 1) for g2 in range(top + 1)}
    _emit_grid("triangulations", rows, n_max, top, fmt)


@main.command("oneface")
@n_max_option()
@format_option
@cache_options
def oneface_cmd(n_max, fmt, cache_path, no_cache):
    """Rooted one-face maps by edge count and genus."""
    tab = OneFaceTable().fill(n_max)
    rows = {(n, g2): tab.value(n, g2)
            for n in range(1, n_max + 1) for g2 in range(n_max + 1)}
    _emit_grid("oneface", rows, n_max, n_max, fmt)


@main.command("bip-oneface")
@n_max_option()
@format_option
@cache_options
def bip_oneface_cmd(n_max, fmt, cache_path, no_cache):
    """Rooted one-face bipartite maps by edges and vertex colours."""
    tab = BipOneFaceTable().fill(n_max)
    records = [{"model": "bip-oneface", "n": n, "g2": n + 1 - i - j,
                "i": i, "j": j, "value": str(tab.value(n, i, j))}
               for n in range(1, n_max + 1) for i in range(1, n + 1)
               for j in range(1, n + 2 - i)]
    _emit_records("bip-oneface", records, fmt, ["n", "g2", "i", "j", "value"])


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
    if model_filter is None:
        records = [{"model": "maps", "n": edges, "g2": 2 - v + edges - f,
                    "i": v, "j": f, "value": str(c)}
                   for (v, f), c in sorted(result["maps"].items())]
        _emit_records("maps", records, fmt, ["n", "g2", "i", "j", "value"])
    elif model_filter == "bipartite":
        records = [{"model": "bipartite", "n": edges, "g2": 2 - i - j + edges - k,
                    "i": i, "j": j, "k": k, "value": str(c)}
                   for (i, j, k), c in sorted(result["bipartite"].items())]
        _emit_records("bipartite", records, fmt, ["n", "g2", "i", "j", "k", "value"])
    else:
        records = [{"model": "triangulations", "n": edges // 3, "g2": g2,
                    "value": str(c)}
                   for g2, c in sorted(result["triangulations"].items())]
        _emit_records("triangulations", records, fmt, ["n", "g2", "value"])


if __name__ == "__main__":
    main()
