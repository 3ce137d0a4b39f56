"""Persistent cache of the polynomial rows of the count tables.

Newline-delimited JSON, append-only, one record per stored integer, with
a version header.  Values are decimal strings (counts overflow 64 bits
well before the table sizes this package targets).

A record is keyed by (model, n, g2, indices).  A polynomial row (model,
n, g2) of `maps` or `bipartite` is one record per coefficient, indexed
by its exponents, plus the record without indices holding the row's
total (its value at all-ones, the scalar maps count).  Only these rows
are loaded and stored: the scalar and one-face tables recompute faster
than their records parse.  The coefficient records decide whether a row
is complete: it is served only once they sum to the stored total.  The
layout stays inside this module: a table's `entries` go in through
`load` and out through `store`, which writes every new record of a run
in one append.

A table run loads the view of one model up to one n: it skips, unparsed,
each line that is a whole record (ending in `}`) with the canonical
start `{"model": "<m>", "n": <digits>, "g2": <digits>,` of another model
or a larger n.  The header and the last line, which may be torn, are
always read, and so is every line of another shape, so a malformed line
is still loud; a value corrupted in a skipped line is caught by the
first run that reads that row.  Loading parses each line it reads once,
straight into the in-memory index, with the scan that `json.loads`
itself ends in (`JSONDecoder.scan_once`); a line that scan does not
consume whole (blank or padded, a BOM, invalid or torn) goes through
`json.loads`, which reads it, or says why not, exactly as it always
has.  Each record's shape is then checked: a known model, non-negative
integers n, g2 and indices (two for maps coefficients and bip-oneface
cells, three for bipartite coefficients, none for totals and scalar
cells) and a decimal string value, and the view keeps the records of
its model and range.  Files written when every table was cached also
hold triangulations, oneface, bip-oneface and scalar maps records: the
first three are other models to every run, and the scalar maps ones are
row totals.  Coefficients stay ints all the way from the file to
a row's `Poly` and back.  A served row must be homogeneous of degree
n + 2 - g2, and a cached row that a table already holds, one of its
seeds, must equal it.  Storing a table compares every record the
file holds for its other rows, coefficients and totals, with the
recomputed row, and builds records only for the rows it does not hold
whole; a row the cache itself served is built from its records and is
not compared again.

Each append holds an exclusive `flock` on the file, so runs sharing one
file write one header and never interleave their records.  A run that
dies mid-append can leave a last line without its newline.  Every
prefix of a record is invalid JSON, so loading drops a last line that
does not parse (with a warning on stderr), and the next append cuts it
off the file under the lock; a complete last record only gets its
newline.  Such a line anywhere else, a record that parses but fails
the shape check on any line read, a stored record that differs
from its recomputed or seeded value, and a served row of another degree
raise CacheError naming the file and the line, record or row.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .errors import CacheError
from .poly import Poly

HEADER = {"format": "surfcount-cache", "version": 1}

# the keys of a record's indices, in order
INDEX_NAMES = "ijk"

# The row layout: SLOTS[model][c] is the slot, of a Poly's exponents (u,
# z, v), that a coefficient record's index c holds.  Maps rows are indexed
# (i, j) = (u, z), bipartite rows (i, j, k) = (u, v, z).
SLOTS = {"maps": (0, 1), "bipartite": (0, 2, 1)}
_TO_INDICES = {model: itemgetter(*slots) for model, slots in SLOTS.items()}
# and back: exponent slot s reads the index that holds it, or else a 0
# appended to the indices
_TO_EXPS = {model: itemgetter(*(slots.index(s) if s in slots else len(slots) for s in range(3)))
            for model, slots in SLOTS.items()}

# json.loads(s) is this scan at the start of s, plus whitespace and
# BOM handling around it
_scan = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class CountRecord:
    model: str                       # maps | bipartite | triangulations | oneface | bip-oneface
    n: int
    g2: int
    value: int
    indices: tuple[int, ...] | None = None   # (i, j) or (i, j, k) for coefficients

    def as_dict(self) -> dict:
        out = {"model": self.model, "n": self.n, "g2": self.g2,
               "value": str(self.value)}
        out.update(zip(INDEX_NAMES, self.indices or ()))
        return out


def default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "surfcount" / "counts.ndjson"


# index getters by model and record length: a polynomial row's coefficient
# records carry its exponents, its total record none
_INDICES = {
    **{model: {4: None, 4 + len(slots): itemgetter(*INDEX_NAMES[:len(slots)])}
       for model, slots in SLOTS.items()},
    "bip-oneface": {6: itemgetter("i", "j")},
    "triangulations": {4: None},
    "oneface": {4: None},
}

# the start of a record as json.dumps writes it: model and n, read off a
# line that a request may skip unparsed
_CANONICAL = re.compile('{"model": "(%s)", "n": (0|[1-9][0-9]*), "g2": (?:0|[1-9][0-9]*),'
                        % "|".join(map(re.escape, _INDICES))).match


def _parse_record(obj) -> tuple[tuple[str, int, int], tuple[int, ...] | None, int]:
    """Check one parsed record's shape; ValueError says what is wrong."""
    try:
        model, n, g2, value = obj["model"], obj["n"], obj["g2"], obj["value"]
        get = _INDICES[model][len(obj)]
        indices = None if get is None else get(obj)
    except (KeyError, TypeError):
        raise ValueError("keys do not fit any model's records") from None
    for x in (n, g2) if indices is None else (n, g2, *indices):
        if type(x) is not int or x < 0:
            raise ValueError("n, g2 and indices must be non-negative integers")
    if not (type(value) is str and value.isascii() and value.isdecimal()):
        raise ValueError("value must be a decimal string")
    return (model, n, g2), indices, int(value)


def record_indices(model: str, exps: tuple[int, int, int]) -> tuple[int, ...]:
    """A polynomial row's exponents (u, z, v) as its record indices."""
    return _TO_INDICES[model](exps)


def _poly_exps(model: str, indices: tuple[int, ...]) -> tuple[int, int, int]:
    return _TO_EXPS[model](indices + (0,))


def _mend_last_line(fh):
    """Give a last line without its newline one if it parses, else cut it off."""
    end = fh.seek(0, os.SEEK_END)
    if not end:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    data = fh.read()
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:])
    except ValueError:
        fh.truncate(cut)
    else:
        fh.write(b"\n")


class CountCache:
    """In-memory view over the append-only record file."""

    def __init__(self, path: str | Path, model: str | None = None, n_max: int | None = None):
        """Load the file at path, every record of it.  Given model and
        n_max, the view of the table runs: it keeps only the records of
        model with n <= n_max, and skips the lines of other records
        unparsed where their start is canonical.  A model needs its
        n_max (ValueError)."""
        if model is not None and n_max is None:
            raise ValueError(f"the view of {model!r} needs n_max")
        self.path = Path(path)
        self.model = model
        # (model, n, g2) -> {indices: value}, indices None for the count
        self._cells: dict[tuple[str, int, int], dict] = {}
        # (model, n, g2) -> the row `load` put into a table, built from
        # exactly the records the file holds for it
        self._served: dict[tuple[str, int, int], Poly] = {}
        if self.path.exists():
            self._load(model, n_max)

    @property
    def records(self) -> dict[tuple, int]:
        """Every stored value, keyed by (model, n, g2, indices)."""
        return {(*key, indices): value
                for key, cells in self._cells.items() for indices, value in cells.items()}

    def _add(self, rec: CountRecord):
        self._cells.setdefault((rec.model, rec.n, rec.g2), {})[rec.indices] = rec.value

    def _load(self, model, n_max):
        data = self.path.read_bytes()
        # split leaves "" last unless the last line lacks its newline
        lines = data.decode(errors="replace").split("\n")
        last = len(lines)
        cells = self._cells
        for lineno, line in enumerate(lines, 1):
            # skip a whole canonical record of another model or a larger n;
            # the header and the last line, maybe torn, are always read
            if model is not None and 1 < lineno < last and line[-1:] == "}":
                head = _CANONICAL(line)
                if head and (head[1] != model or int(head[2]) > n_max):
                    continue
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                # not one bare JSON value: blank, padded, a BOM, invalid or torn
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    if lineno < len(lines):
                        raise CacheError(
                            f"{self.path}:{lineno}: unparsable cache record") from None
                    print(f"warning: dropping torn last line {lineno} of {self.path}",
                          file=sys.stderr)
                    return
            if lineno == 1:
                if not isinstance(obj, dict) or obj.get("format") != HEADER["format"]:
                    raise CacheError(f"not a surfcount cache: {self.path}")
                continue
            try:
                key, indices, value = _parse_record(obj)
            except ValueError as exc:
                raise CacheError(f"{self.path}:{lineno}: malformed cache record: {exc}") from None
            if model is None or key[0] == model and key[1] <= n_max:
                cells.setdefault(key, {})[indices] = value

    def _append(self, records):
        """Write the records the file lacks, all in one locked append.

        Under the lock: mend the last line, then write the header if the
        file is empty.
        """
        records = [rec for rec in records
                   if self.get_scalar(rec.model, rec.n, rec.g2, rec.indices) is None]
        if not records:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(rec.as_dict()) + "\n" for rec in records]
        with self.path.open("ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)   # released when the file closes
            _mend_last_line(fh)
            if not fh.seek(0, os.SEEK_END):
                lines.insert(0, json.dumps(HEADER) + "\n")
            fh.write("".join(lines).encode())
        for rec in records:
            self._add(rec)

    # -- tables ----------------------------------------------------------

    def _view_model(self) -> str:
        if self.model is None:
            raise ValueError("load and store need the view of one model: "
                             "CountCache(path, model, n_max)")
        return self.model

    def load(self, entries: dict, n_max: int):
        """Copy the complete cached rows of the view's model with n <= n_max
        into a polynomial table's entries, keyed (n, g2).

        A served row must be homogeneous of degree n + 2 - g2, the degree
        of every cell of these tables, which read genus off degree; and a
        row already in entries, one of the table's seeds, must equal its
        cached row.  Else CacheError names the file and the row.  A view
        of every model has no table to load into (ValueError).
        """
        model = self._view_model()
        for key in self._cells:
            _, n, g2 = key
            if n > n_max:
                continue
            row = self.get_row(model, n, g2)
            if row is None:
                continue
            if not row.is_homogeneous(n + 2 - g2):
                raise CacheError(f"{self.path}: {model}[{n},{g2}]: cached row is not "
                                 f"homogeneous of degree {n + 2 - g2}")
            held = entries.setdefault((n, g2), row)
            if held is row:
                self._served[key] = row
            elif held != row:
                raise CacheError(f"{self.path}: {model}[{n},{g2}]: cached {row}, seed {held}")

    def store(self, entries: dict):
        """Append every record of a table's rows, of the view's model, that the file lacks.

        Each record the file holds for a row, coefficient or total, must
        equal the recomputed one, else CacheError names the file and the
        record.  A row that `load` served is skipped: it was built from
        exactly those records.  A row the file holds whole builds no
        records; `_append` drops the ones a partly held row already has.
        A view of every model has no table to store (ValueError).
        """
        model = self._view_model()
        records = []
        served = self._served
        for (n, g2), poly in entries.items():
            if served.get((model, n, g2)) is poly:
                continue
            held = self._cells.get((model, n, g2), {})
            row = {record_indices(model, exps): c for exps, c in poly.int_items()}
            row[None] = sum(row.values())
            for indices, value in held.items():
                recomputed = row.get(indices, 0)
                if recomputed != value:
                    cell = ",".join(map(str, (n, g2, *(indices or ()))))
                    raise CacheError(f"{self.path}: {model}[{cell}]: "
                                     f"cached {value}, recomputed {recomputed}")
            if not row.keys() <= held.keys():
                records += self._row_records(model, n, g2, poly, row[None])
        self._append(records)

    # -- single cells and rows ---------------------------------------------

    def get_scalar(self, model: str, n: int, g2: int,
                   indices: tuple[int, ...] | None = None) -> int | None:
        cells = self._cells.get((model, n, g2))
        return None if cells is None else cells.get(indices)

    def put_scalar(self, model: str, n: int, g2: int, value: int,
                   indices: tuple[int, ...] | None = None):
        self._append([CountRecord(model, n, g2, value, indices)])

    def get_row(self, model: str, n: int, g2: int) -> Poly | None:
        """Rebuild a stored polynomial row; None unless it is complete."""
        cells = self._cells.get((model, n, g2), {})
        total = cells.get(None)
        coeffs = {_poly_exps(model, idx): value
                  for idx, value in cells.items() if idx is not None}
        if total is None or sum(coeffs.values()) != total:
            return None
        return Poly.from_terms(coeffs)

    def put_row(self, model: str, n: int, g2: int, poly: Poly, total: int):
        self._append(self._row_records(model, n, g2, poly, total))

    @staticmethod
    def _row_records(model, n, g2, poly, total):
        records = [CountRecord(model, n, g2, c, record_indices(model, exps))
                   for exps, c in sorted(poly.int_items())]
        records.append(CountRecord(model, n, g2, int(total)))
        return records
