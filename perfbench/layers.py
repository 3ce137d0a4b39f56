"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public entry points of each surfcount
module with timing wrappers and `uninstall()` puts the originals back;
nothing under src/ changes.  A span records name, start, end, parent
span and request id.  Self time is a span's duration minus the time its
child spans cover.  Neither the wrappers' own bookkeeping nor the time
the speed probe spends inside a span (the `paused` counter) is charged to
any layer.

Poly and TSeries arithmetic runs millions of times per pass.  Those
calls are leaf spans: they are timed and counted like the others, but
kept as per-name totals rather than one record each, so memory stays
flat.  Every other span is kept in memory and written out at the end.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns as clock

LAYERS = ("maps", "triangulations", "bipartite", "poly", "tseries",
          "identities", "cache", "cli", "oracle")

# Per-layer metrics: (name, unit, better).  Times are self times.
METRICS = [
    ("maps.counts_fill_s", "s", "lower"), ("maps.cc_fill_s", "s", "lower"),
    ("maps.kz_fill_s", "s", "lower"), ("maps.oneface_fill_s", "s", "lower"),
    ("maps.cells_computed", "count", "lower"),
    ("triangulations.fill_s", "s", "lower"),
    ("triangulations.cells_computed", "count", "lower"),
    ("bipartite.fill_s", "s", "lower"), ("bipartite.oneface_fill_s", "s", "lower"),
    ("bipartite.cells_computed", "count", "lower"),
    ("poly.mul_s", "s", "lower"), ("poly.mul_calls", "count", "lower"),
    ("poly.mul_term_pairs", "count", "lower"),
    ("poly.add_s", "s", "lower"), ("poly.add_calls", "count", "lower"),
    ("poly.sum_s", "s", "lower"), ("poly.sum_calls", "count", "lower"),
    ("tseries.mul_s", "s", "lower"), ("tseries.mul_calls", "count", "lower"),
    ("tseries.coeff_pairs", "count", "lower"),
    ("identities.table_s", "s", "lower"), ("identities.flam_s", "s", "lower"),
    ("identities.residual_s", "s", "lower"),
    ("identities.memo_entries", "count", "lower"),
    ("identities.orders_checked", "count", "higher"),
    ("cache.load_s", "s", "lower"), ("cache.records_loaded", "count", "lower"),
    ("cache.get_row_s", "s", "lower"), ("cache.get_row_calls", "count", "lower"),
    ("cache.put_s", "s", "lower"), ("cache.bytes_appended", "count", "lower"),
    ("cache.rows_hit_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"), ("cli.output_bytes", "count", "lower"),
    ("oracle.scan_s", "s", "lower"), ("oracle.scan_calls", "count", "lower"),
] + [(f"{layer}.errors", "count", "lower") for layer in LAYERS] + [
    # set by run.py: traced pass over the median untraced pass, and the
    # untraced split of wall time into new and repeated requests
    ("trace.overhead_ratio", "ratio", "lower"),
    ("session.miss_s", "s", "lower"), ("session.hit_s", "s", "lower"),
]

def _clean_exit(exc: BaseException) -> bool:
    return isinstance(exc, SystemExit) and exc.code in (0, None)


class Tracer:
    def __init__(self, paused: list[int]):
        self.paused = paused             # [ns] spent by the speed probe so far
        self.spans: list[tuple] = []     # (id, name, start_ns, end_ns, parent_id, request_id)
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id: int | None = None
        self.contexts: list = []         # identity contexts built, for memo sizes
        self._stack: list[list] = []     # open spans: [id, child_ns]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, fn, name, metric, layer, before=None, after=None):
        """Wrap fn in a stored span; metric may depend on the call's arguments."""
        stack, paused = self._stack, self.paused

        def wrapper(*args, **kwargs):
            enter, paused_enter = clock(), paused[0]
            state = before(args) if before else None
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)

            def close(start, paused_start):
                end = clock()
                stack.pop()
                key = metric(args) if callable(metric) else metric
                self.self_ns[key] += end - start - (paused[0] - paused_start) - frame[1]
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent else None, self.request_id))

            def charge_parent():
                if parent is not None:
                    parent[1] += clock() - enter - (paused[0] - paused_enter)

            start, paused_start = clock(), paused[0]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(start, paused_start)
                if not _clean_exit(exc):
                    self.counts[f"{layer}.errors"] += 1
                charge_parent()
                raise
            close(start, paused_start)
            if after is not None:
                after(args, result, state)
            charge_parent()
            return result

        return wrapper

    def leaf(self, fn, layer, op, pairs=None):
        """Wrap a binary arithmetic method; totals only, no stored span."""
        stack, self_ns, counts, paused = self._stack, self.self_ns, self.counts, self.paused
        time_key, calls_key = f"{layer}.{op}_s", f"{layer}.{op}_calls"
        pairs_key = f"{layer}.{'mul_term_pairs' if layer == 'poly' else 'coeff_pairs'}"

        def wrapper(a, b):
            start, paused_start = clock(), paused[0]
            try:
                return fn(a, b)
            except BaseException:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                dur = clock() - start - (paused[0] - paused_start)
                self_ns[time_key] += dur
                counts[calls_key] += 1
                if pairs is not None:
                    counts[pairs_key] += pairs(a, b)
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        from surfcount import bipartite, cache, cli, identities, maps, oracle, poly
        from surfcount import triangulations, tseries

        counts = self.counts

        def cells(layer):
            def before(args):
                return len(args[0].entries)

            def after(args, result, n0):
                counts[f"{layer}.cells_computed"] += len(args[0].entries) - n0
            return before, after

        fills = [
            (maps.MapsCounts, "maps", "maps.counts_fill_s"),
            (maps.MapsTable, "maps", lambda a: f"maps.{a[0].engine}_fill_s"),
            (maps.OneFaceTable, "maps", "maps.oneface_fill_s"),
            (triangulations.TriTable, "triangulations", "triangulations.fill_s"),
            (bipartite.BipTable, "bipartite", "bipartite.fill_s"),
            (bipartite.BipOneFaceTable, "bipartite", "bipartite.oneface_fill_s"),
        ]
        for cls, layer, metric in fills:
            before, after = cells(layer)
            self._patch(cls, "fill", self.span(cls.fill, f"{cls.__name__}.fill", metric,
                                               layer, before, after))

        # arithmetic leaves
        Poly, TSeries = poly.Poly, tseries.TSeries
        self._patch(Poly, "__mul__", self.leaf(
            Poly.__mul__, "poly", "mul",
            lambda a, b: len(a.terms) * len(b.terms) if isinstance(b, Poly) else 0))
        self._patch(Poly, "__add__", self.leaf(Poly.__add__, "poly", "add"))
        poly_sum = Poly.__dict__["sum"].__func__
        self._patch(Poly, "sum", classmethod(self.leaf(poly_sum, "poly", "sum")))

        def nonzero(s):
            return sum(1 for p in s.coeffs if p.terms)

        def series_pairs(args, _result, _state):
            counts["tseries.mul_calls"] += 1
            a, b = args
            if isinstance(b, TSeries):
                counts["tseries.coeff_pairs"] += nonzero(a) * nonzero(b)

        ts_mul = self.span(TSeries.__mul__, "TSeries.__mul__", "tseries.mul_s", "tseries",
                           after=series_pairs)
        self._patch(TSeries, "__mul__", ts_mul)
        self._patch(TSeries, "__rmul__", ts_mul)

        # identities
        for name in ("maps_context", "bipartite_context", "triangulations_context"):
            self._patch(identities, name, self.span(
                getattr(identities, name), name, "identities.table_s", "identities",
                after=lambda args, ctx, _: self.contexts.append(ctx)))
        for name in ("kp_combinations", "ftheta", "formal_eval"):
            self._patch(identities, name, self.span(
                getattr(identities, name), name, "identities.flam_s", "identities"))
        for name in [n for n in vars(identities) if n.startswith("verify_")]:
            self._patch(identities, name, self.span(
                getattr(identities, name), name, "identities.residual_s", "identities"))

        def orders(args, report, _):
            counts["identities.orders_checked"] += report.window[1] - report.window[0] + 1
        run_identity = self.span(identities.run_identity, "run_identity",
                                 "identities.residual_s", "identities", after=orders)
        self._patch(identities, "run_identity", run_identity)
        self._patch(cli, "run_identity", run_identity)

        # cache
        CountCache = cache.CountCache

        def loaded(args, _result, _state):
            counts["cache.records_loaded"] += len(args[0].records)

        def row_served(args, row, _state):
            counts["cache.get_row_calls"] += 1
            cc, model, n, g2 = args
            if row is not None and row.evaluate() == cc.get_scalar(model, n, g2):
                counts["cache.rows_served"] += 1

        def size_before(args):
            path = args[0].path
            return path.stat().st_size if path.exists() else 0

        def appended(args, _result, size0):
            counts["cache.bytes_appended"] += size_before(args) - size0

        self._patch(CountCache, "__init__", self.span(
            CountCache.__init__, "CountCache.__init__", "cache.load_s", "cache",
            after=loaded))
        self._patch(CountCache, "get_row", self.span(
            CountCache.get_row, "CountCache.get_row", "cache.get_row_s", "cache",
            after=row_served))
        for name in ("put_row", "put_scalar"):
            self._patch(CountCache, name, self.span(
                getattr(CountCache, name), f"CountCache.{name}", "cache.put_s", "cache",
                before=size_before, after=appended))

        # oracle: the CLI holds its own reference to scan
        def scanned(args, _result, _state):
            counts["oracle.scan_calls"] += 1
        scan = self.span(oracle.scan, "scan", "oracle.scan_s", "oracle", after=scanned)
        self._patch(oracle, "scan", scan)
        self._patch(cli, "scan", scan)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def request(self, call):
        """Run one CLI request as a root span; returns call()'s result."""
        self.request_id = (self.request_id or 0) + 1
        return self.span(call, "cli.request", "cli.self_s", "cli")()

    # -- results --------------------------------------------------------------

    def metrics(self, seconds: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric; times are taken from `seconds`."""
        out = {}
        for name, unit, _ in METRICS:
            if unit == "s":
                out[name] = seconds.get(name, 0.0)
            elif name == "cache.rows_hit_ratio":
                calls = self.counts["cache.get_row_calls"]
                out[name] = self.counts["cache.rows_served"] / calls if calls else 0.0
            elif name == "identities.memo_entries":
                out[name] = sum(len(ctx.memo) for ctx in self.contexts)
            else:
                out[name] = self.counts[name]
        return out
