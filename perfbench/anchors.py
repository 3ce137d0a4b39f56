"""Correctness anchors for CLI output, checked outside the timed region.

Every number is compared with something computed independently of the
code path that printed it: the published reference tables (n <= 16),
closed forms for the planar rows, Euler's relation on refined
coefficients, the exact recurrence tables for the brute-force oracle, and
the identity report's own status and window.
"""

from __future__ import annotations

import importlib.util
import json
from collections import defaultdict
from math import comb, factorial
from pathlib import Path


def load_reference_tables(root: Path):
    """The repository's published reference tables, loaded by file path."""
    path = root / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("_perfbench_reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"maps": module.MAPS, "bipartite": module.BIPARTITE,
            "triangulations": module.TRIANGULATIONS}


# -- closed forms for planar (g = 0) rows ---------------------------------

def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def planar_maps(n: int) -> int:
    """Tutte: 2 * 3^n (2n)! / (n! (n+2)!)."""
    return 2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))


def planar_bipartite(n: int) -> int:
    """3 * 2^(n-1) (2n)! / (n! (n+2)!)."""
    return 3 * 2 ** (n - 1) * factorial(2 * n) // (factorial(n) * factorial(n + 2))


def planar_triangulations(n: int) -> int:
    """OEIS A002005: 2^(2n+1) (3n)!! / ((n+2)! n!!)."""
    return (2 ** (2 * n + 1) * _double_factorial(3 * n)
            // (factorial(n + 2) * _double_factorial(n)))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    return comb(n, k) * comb(n, k - 1) // n


PLANAR = {"maps": planar_maps, "bipartite": planar_bipartite,
          "triangulations": planar_triangulations, "oneface": catalan}


# -- output parsing ---------------------------------------------------------

def _g2_of(label: str) -> int:
    text = label.split("=", 1)[1]
    return int(text.split("/")[0]) if "/" in text else 2 * int(text)


def _rows(text: str, fmt: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line.strip()]
    return [line.split(",") if fmt == "csv" else line.split() for line in lines]


def parse_grid(text: str, fmt: str) -> dict[tuple[int, int], int]:
    """A count grid printed by maps/bipartite/triangulations/oneface."""
    if fmt == "json":
        return {(r["n"], r["g2"]): int(r["value"]) for r in json.loads(text)["rows"]}
    header, *body = _rows(text, fmt)
    genera = [_g2_of(h) for h in header[1:]]
    return {(int(row[0]), g2): int(cell)
            for row in body for g2, cell in zip(genera, row[1:])}


def parse_records(text: str, fmt: str) -> list[dict[str, int]]:
    """Coefficient records (bivariate, trivariate, bip-oneface, oracle)."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [{k: int(v) for k, v in r.items() if k != "model"} for r in rows]
    header, *body = _rows(text, fmt)
    return [dict(zip(header, map(int, row))) for row in body]


def parse_verify(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    lo, hi = fields["usable window"].replace("t^", "").split(" .. ")
    return {"status": fields["status"].lower(), "window": [int(lo), int(hi)],
            "requested_order": int(fields["requested order"])}


# -- checks -----------------------------------------------------------------

class Anchors:
    """Checks one request's output; returns a list of mismatch descriptions."""

    def __init__(self, root: Path):
        self.reference = load_reference_tables(root)
        self._oracle_truth: dict = {}

    def check(self, req, text: str) -> list[str]:
        cmd, variant = req.command, req.variant
        if cmd == "verify":
            return self._verify(req, parse_verify(text, req.fmt))
        if cmd == "oracle":
            return self._oracle(req, parse_records(text, req.fmt))
        if cmd == "bip-oneface":
            return self._bip_oneface(req.n, parse_records(text, req.fmt))
        if variant in (("--bivariate",), ("--trivariate",)):
            records = parse_records(text, req.fmt)
            problems = _euler(records)
            sums: dict = defaultdict(int)
            for r in records:
                sums[(r["n"], r["g2"])] += r["value"]
            return problems + self._grid(cmd, req.n, sums)
        return self._grid(cmd, req.n, parse_grid(text, req.fmt))

    def _grid(self, model, n_max, cells) -> list[str]:
        problems = []
        if {n for n, _ in cells} != set(range(1, n_max + 1)):
            problems.append(f"{model}: rows do not cover 1..{n_max}")
        for (n, g2), want in self.reference.get(model, {}).items():
            if n <= n_max and cells.get((n, g2), 0) != want:
                problems.append(f"{model}[{n},{g2}] = {cells.get((n, g2))}, reference {want}")
        for n in range(1, n_max + 1):
            if cells.get((n, 0)) != PLANAR[model](n):
                problems.append(f"{model}[{n},0] = {cells.get((n, 0))}, closed form {PLANAR[model](n)}")
        return problems

    def _bip_oneface(self, n_max, records) -> list[str]:
        problems = []
        values = {(r["n"], r["i"], r["j"]): r["value"] for r in records}
        for (n, i, j), value in values.items():
            if value != values.get((n, j, i)):
                problems.append(f"bip-oneface[{n},{i},{j}] breaks black/white symmetry")
            if i + j == n + 1 and value != narayana(n, i):
                problems.append(f"bip-oneface[{n},{i},{j}] = {value}, Narayana {narayana(n, i)}")
        if {n for n, _, _ in values} != set(range(1, n_max + 1)):
            problems.append("bip-oneface: rows missing")
        return problems

    def _verify(self, req, report) -> list[str]:
        problems = []
        if report["status"] != "pass":
            problems.append(f"{req.variant[0]}: status {report['status']}")
        if report["window"][1] < req.n:
            problems.append(f"{req.variant[0]}: window {report['window']} misses order {req.n}")
        return problems

    def _oracle(self, req, records) -> list[str]:
        bipartite = req.variant == ("--filter", "bipartite")
        key = (req.n, bipartite)
        if key not in self._oracle_truth:
            self._oracle_truth[key] = _recurrence_split(req.n, bipartite)
        got = {}
        for r in records:
            idx = (r["i"], r["j"], r.get("k", 0))
            got[idx] = r["value"]
        want = self._oracle_truth[key]
        if got != want:
            return [f"oracle --edges {req.n}{' bipartite' if bipartite else ''}: "
                    f"{len(got)} cells differ from the recurrence split"]
        return []


def _euler(records) -> list[str]:
    """Vertices (+ second colour) + faces = n + 2 - g2 on every coefficient."""
    bad = [r for r in records
           if r["i"] + r["j"] + r.get("k", 0) != r["n"] + 2 - r["g2"] or r["value"] <= 0]
    return [f"{len(bad)} coefficients break Euler's relation or positivity"] if bad else []


def _recurrence_split(n: int, bipartite: bool) -> dict:
    """The vertex/face split from the recurrence tables, keyed like oracle records."""
    from surfcount.bipartite import BipTable
    from surfcount.maps import MapsTable

    out = {}
    if bipartite:
        tab = BipTable().fill(n)
        for g2 in range(n + 1):
            for (u, z, v), c in tab.poly(n, g2).items():
                out[(u, v, z)] = int(c)
    else:
        tab = MapsTable("cc").fill(n)
        for g2 in range(n + 1):
            for (u, z, _), c in tab.poly(n, g2).items():
                out[(u, z, 0)] = int(c)
    return out
