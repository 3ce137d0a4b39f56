"""Command-line interface.

Subcommands produce count tables (human table, CSV grid, or JSON records)
for each model, run the brute-force oracle, and evaluate the functional
identity checks.  Exit code 0 on success, 1 on a verification failure,
2 on usage errors, 3 when the count cache file cannot be read (a
one-line message on stderr names the file and line).
"""

from __future__ import annotations

import json
import sys

import click

from .bipartite import BipOneFaceTable, BipTable
from .cache import CountCache, CountRecord, default_cache_path
from .errors import CacheError, WindowError
from .genus import genus_label, parse_genus
from .identities import IDENTITIES, run_identity
from .maps import MapsCounts, MapsTable
from .oracle import MAX_EDGES, scan
from .triangulations import TriTable


def common_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
                      default="table", show_default=True, help="output format")(fn)
    fn = click.option("--cache", "cache_path", type=click.Path(dir_okay=False),
                      default=None, help="count cache file (default: user cache dir)")(fn)
    fn = click.option("--no-cache", is_flag=True, help="disable the count cache")(fn)
    return fn


def open_cache(cache_path, no_cache) -> CountCache | None:
    if no_cache:
        return None
    try:
        return CountCache(cache_path or default_cache_path())
    except CacheError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Exact counts of rooted maps on surfaces, orientable or not."""


def _parse_gmax(g_max, n_max):
    if g_max is None:
        return None
    try:
        return parse_genus(g_max)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit_grid(model, rows, n_max, g2_max, fmt):
    """rows: {(n, g2): int} covering 1..n_max, 0..g2_max."""
    genera = list(range(g2_max + 1))
    if fmt == "json":
        records = [CountRecord(model, n, g2, rows[(n, g2)]).as_dict()
                   for n in range(1, n_max + 1) for g2 in genera]
        click.echo(json.dumps({"model": model, "rows": records}))
        return
    header = ["n"] + [f"g={genus_label(g2)}" for g2 in genera]
    lines = [[str(n)] + [str(rows[(n, g2)]) for g2 in genera]
             for n in range(1, n_max + 1)]
    if fmt == "csv":
        click.echo(",".join(header))
        for line in lines:
            click.echo(",".join(line))
        return
    widths = [max(len(r[c]) for r in [header] + lines) for c in range(len(header))]
    for row in [header] + lines:
        click.echo("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _emit_records(model, records, fmt, columns):
    """records: list of dicts with the given columns (value last)."""
    if fmt == "json":
        click.echo(json.dumps({"model": model, "rows": records}))
        return
    header = list(columns)
    lines = [[str(r.get(c, "")) for c in columns] for r in records]
    if fmt == "csv":
        click.echo(",".join(header))
        for line in lines:
            click.echo(",".join(line))
        return
    widths = [max([len(h)] + [len(l[i]) for l in lines]) for i, h in enumerate(header)]
    for row in [header] + lines:
        click.echo("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


@main.command("maps")
@click.option("--n-max", type=int, required=True)
@click.option("--g-max", type=str, default=None, help="max genus, e.g. 4 or 7/2")
@click.option("--bivariate", is_flag=True, help="emit vertex/face coefficients")
@click.option("--engine", type=click.Choice(["kz", "cc", "both"]), default=None,
              help="bivariate recurrence engine (default: integer fast path)")
@common_options
def maps_cmd(n_max, g_max, bivariate, engine, fmt, cache_path, no_cache):
    """Rooted maps by edge count and genus."""
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    g2_max = _parse_gmax(g_max, n_max)
    top = n_max if g2_max is None else g2_max
    cache = open_cache(cache_path, no_cache)
    if engine is None and not bivariate:
        counts = MapsCounts()
        if cache:
            for key in list(cache.records):
                model, n, g2, idx = key
                if model == "maps" and idx is None and n <= n_max:
                    counts.entries[(n, g2)] = cache.records[key]
        counts.fill(n_max, top)
        rows = {(n, g2): counts.value(n, g2)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        if cache:
            for n in range(1, n_max + 1):
                for g2 in range(min(n, top) + 1):
                    cache.put_scalar("maps", n, g2, rows[(n, g2)])
        _emit_grid("maps", rows, n_max, top, fmt)
        return
    engine = engine or "cc"
    tables = []
    for eng in (["kz", "cc"] if engine == "both" else [engine]):
        tab = MapsTable(eng)
        if eng == "cc" and cache:
            for n in range(3, n_max + 1):
                for g2 in range(min(n, top) + 1):
                    row = cache.get_row("maps", n, g2)
                    if row is not None and row.evaluate() == cache.get_scalar("maps", n, g2):
                        tab.entries[(n, g2)] = row
        tab.fill(n_max, top)
        tables.append(tab)
    if engine == "both":
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                if tables[0].poly(n, g2) != tables[1].poly(n, g2):
                    click.echo(f"engine mismatch at n={n}, g={genus_label(g2)}", err=True)
                    sys.exit(1)
    tab = tables[-1]
    if cache and tab.engine == "cc":
        for n in range(3, n_max + 1):
            for g2 in range(min(n, top) + 1):
                cache.put_row("maps", n, g2, tab.poly(n, g2), tab.count(n, g2))
    if bivariate:
        records = []
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                for (i, j, _), c in sorted(tab.poly(n, g2).items()):
                    records.append({"model": "maps", "n": n, "g2": g2,
                                    "i": i, "j": j, "value": str(int(c))})
        _emit_records("maps", records, fmt, ["n", "g2", "i", "j", "value"])
    else:
        rows = {(n, g2): (tab.count(n, g2) if g2 <= n else 0)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        _emit_grid("maps", rows, n_max, top, fmt)


@main.command("bipartite")
@click.option("--n-max", type=int, required=True)
@click.option("--g-max", type=str, default=None)
@click.option("--trivariate", is_flag=True, help="emit colour/face coefficients")
@common_options
def bipartite_cmd(n_max, g_max, trivariate, fmt, cache_path, no_cache):
    """Rooted bipartite maps by edge count and genus."""
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    g2_max = _parse_gmax(g_max, n_max)
    top = n_max if g2_max is None else g2_max
    cache = open_cache(cache_path, no_cache)
    tab = BipTable()
    if cache:
        for n in range(3, n_max + 1):
            for g2 in range(min(n, top) + 1):
                row = cache.get_row("bipartite", n, g2)
                if row is not None and row.evaluate() == cache.get_scalar("bipartite", n, g2):
                    tab.entries[(n, g2)] = row
    tab.fill(n_max, top)
    if cache:
        for n in range(3, n_max + 1):
            for g2 in range(min(n, top) + 1):
                cache.put_row("bipartite", n, g2, tab.poly(n, g2), tab.count(n, g2))
    if trivariate:
        records = []
        for n in range(1, n_max + 1):
            for g2 in range(min(n, top) + 1):
                for (i, k, j), c in sorted(tab.poly(n, g2).items()):
                    records.append({"model": "bipartite", "n": n, "g2": g2,
                                    "i": i, "j": j, "k": k, "value": str(int(c))})
        _emit_records("bipartite", records, fmt, ["n", "g2", "i", "j", "k", "value"])
    else:
        rows = {(n, g2): (tab.count(n, g2) if g2 <= n else 0)
                for n in range(1, n_max + 1) for g2 in range(top + 1)}
        _emit_grid("bipartite", rows, n_max, top, fmt)


@main.command("triangulations")
@click.option("--n-max", type=int, required=True, help="max half-face-count n (2n faces)")
@click.option("--g-max", type=str, default=None)
@common_options
def triangulations_cmd(n_max, g_max, fmt, cache_path, no_cache):
    """Rooted triangulations with 2n faces by genus."""
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    g2_max = _parse_gmax(g_max, n_max)
    top = (n_max + 1) if g2_max is None else g2_max
    cache = open_cache(cache_path, no_cache)
    tab = TriTable()
    if cache:
        for key in list(cache.records):
            model, n, g2, idx = key
            if model == "triangulations" and idx is None and n <= n_max:
                tab.entries[(n, g2)] = cache.records[key]
    tab.fill(n_max, top)
    rows = {(n, g2): tab.value(n, g2)
            for n in range(1, n_max + 1) for g2 in range(top + 1)}
    if cache:
        for n in range(1, n_max + 1):
            for g2 in range(min(n + 1, top) + 1):
                cache.put_scalar("triangulations", n, g2, tab.value(n, g2))
    _emit_grid("triangulations", rows, n_max, top, fmt)


@main.command("oneface")
@click.option("--n-max", type=int, required=True)
@common_options
def oneface_cmd(n_max, fmt, cache_path, no_cache):
    """Rooted one-face maps by edge count and genus."""
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    from .maps import OneFaceTable

    cache = open_cache(cache_path, no_cache)
    tab = OneFaceTable()
    if cache:
        for key in list(cache.records):
            model, n, g2, idx = key
            if model == "oneface" and idx is None and 4 <= n <= n_max:
                tab.entries[(n, g2)] = cache.records[key]
                tab._filled_n = max(tab._filled_n, n)
    tab.fill(n_max)
    rows = {(n, g2): tab.value(n, g2)
            for n in range(1, n_max + 1) for g2 in range(n_max + 1)}
    if cache:
        for n in range(1, n_max + 1):
            for g2 in range(n + 1):
                cache.put_scalar("oneface", n, g2, tab.value(n, g2))
    _emit_grid("oneface", rows, n_max, n_max, fmt)


@main.command("bip-oneface")
@click.option("--n-max", type=int, required=True)
@common_options
def bip_oneface_cmd(n_max, fmt, cache_path, no_cache):
    """Rooted one-face bipartite maps by edges and vertex colours."""
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    cache = open_cache(cache_path, no_cache)
    tab = BipOneFaceTable()
    tab.fill(n_max)
    records = []
    for n in range(1, n_max + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 2 - i):
                val = tab.value(n, i, j)
                g2 = n + 1 - i - j
                records.append({"model": "bip-oneface", "n": n, "g2": g2,
                                "i": i, "j": j, "value": str(val)})
                if cache:
                    cache.put_scalar("bip-oneface", n, g2, val, indices=(i, j))
    _emit_records("bip-oneface", records, fmt, ["n", "g2", "i", "j", "value"])


@main.command("verify")
@click.argument("identity")
@click.option("--order", type=int, default=None, help="t-order to verify to")
@common_options
def verify_cmd(identity, order, fmt, cache_path, no_cache):
    """Evaluate a functional identity's residual on truncated series.

    Known identities: shifted-bkp1, ode-maps, ode-bipartite,
    ode-triangulations, ode-oneface-maps, ode-oneface-bipartite,
    fixed-charge.
    """
    if identity not in IDENTITIES:
        raise click.UsageError(
            f"unknown identity {identity!r}; choose from {', '.join(sorted(IDENTITIES))}"
        )
    try:
        report = run_identity(identity, order)
    except WindowError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        click.echo(json.dumps(report.as_dict()))
    else:
        click.echo(f"identity: {report.identity} (model {report.model})")
        click.echo(f"requested order: {report.requested_order}")
        click.echo(f"usable window: t^{report.window[0]} .. t^{report.window[1]}")
        click.echo(f"status: {report.status.upper()}")
        if report.first_failure:
            click.echo(f"first failing coefficient: t^{report.first_failure['order']}: "
                       f"{report.first_failure['coefficient']}")
    sys.exit(0 if report.status == "pass" else 1)


@main.command("oracle",
              help=f"Brute-force enumeration via flag involutions (up to {MAX_EDGES} edges).")
@click.option("--edges", type=int, required=True)
@click.option("--filter", "model_filter",
              type=click.Choice(["bipartite", "triangulation"]), default=None)
@common_options
def oracle_cmd(edges, model_filter, fmt, cache_path, no_cache):
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
