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
start `{"model": "<m>", "n": <digits>, "g2": <digits>,` (at most 640
digits each) of another model or a larger n.  The header and the last line, which may be torn, are
always read, and so is every line of another shape, so a malformed line
is still loud; a value corrupted in a skipped line is caught by the
first run that reads that row.  A line the view keeps that is exactly
what the writer writes (the canonical start, then `"value":
"<digits>"` and the indices `i`, `j`[, `k`], as many as the model's
records carry) is read by one regular-expression match of its rest.
Every other line goes through `json.loads`, which reads it, or says
why not, exactly as it always has (blank or padded, a BOM, other key
orders or spellings, invalid or torn).  Each record's shape is then
checked: a known model, non-negative integers n, g2 and indices (two
for maps coefficients and bip-oneface cells, three for bipartite
coefficients, none for totals and scalar cells) and a decimal string
value, and the view keeps the records of its model and range.  Files
written when every table was cached also hold triangulations, oneface,
bip-oneface and scalar maps records: the first three are other models
to every run, and the scalar maps ones are row totals.

Coefficients stay ints all the way from the file to a row's `Poly` and
back.  The packed key layout is `poly`'s; this module decides only the
index order of a coefficient record, maps (i, j) = (u, z) and bipartite
(i, j, k) = (u, v, z).  A served row is `Poly.from_records` of its
records, and a z or v index above `poly.EXP_MAX` raises CacheError;
`coefficient_records` is `Poly.to_records`, a row's records in record
order (by exponents (u, z, v)), and `store` and the CLI's coefficient
output both go through it.  Every record line is written by
`record_line`, which builds exactly what `json.dumps` writes for the
record's dict.  A served row must be homogeneous of degree n + 2 - g2,
and a cached row that a table already holds, one of its seeds, must
equal it.  Storing a table compares every record the file holds for its
other rows, coefficients and totals, with the recomputed row, and
appends only the records the file lacks; a row the cache itself served
is built from its records and is not compared again.

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
from operator import itemgetter
from pathlib import Path

from .errors import CacheError, ExponentRangeError
from .poly import EXP_MAX, Poly

HEADER = {"format": "surfcount-cache", "version": 1}

# the keys of a record's indices, in order
INDEX_NAMES = "ijk"

# the number of indices each model's records carry: none for totals and
# scalar cells
_WIDTHS = {"maps": (0, 2), "bipartite": (0, 3), "bip-oneface": (2,),
           "triangulations": (0,), "oneface": (0,)}
# and their getters, by model and record length
_INDICES = {model: {4 + w: itemgetter(*INDEX_NAMES[:w]) if w else None for w in widths}
            for model, widths in _WIDTHS.items()}

# the index order of a polynomial row's coefficient records, by model
_ORDER = {"maps": "uz", "bipartite": "uvz"}
# the number of indices of a polynomial row's coefficient records
ROW_WIDTH = {model: len(order) for model, order in _ORDER.items()}

# A number as json.dumps writes it, of at most 640 digits: int() reads
# those under any limit on its digits (640 is the lowest one Python
# accepts), and a line with a longer one goes through json.loads.
_NAT = "(0|[1-9][0-9]{0,639})"
# the start of a record as json.dumps writes it: model, n and g2, read off
# a line that a request may skip unparsed
_CANONICAL = re.compile('{"model": "(%s)", "n": %s, "g2": %s,'
                        % ("|".join(map(re.escape, _WIDTHS)), _NAT, _NAT)).match
# and the rest of it: value, then the indices
_REST = re.compile(' "value": "([0-9]{1,640})"(?:, "i": %s, "j": %s(?:, "k": %s)?)?}'
                   % (_NAT, _NAT, _NAT)).fullmatch


def default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "surfcount" / "counts.ndjson"


def record_line(model: str, n: int, g2: int, indices: tuple[int, ...] | None, value: int) -> str:
    """One record's line: json.dumps of its dict (model, n, g2, value as a
    string, then the indices as i, j, k) and a newline."""
    tail = "".join([f', "{name}": {x}' for name, x in zip(INDEX_NAMES, indices or ())])
    return f'{{"model": "{model}", "n": {n}, "g2": {g2}, "value": "{value}"{tail}}}\n'


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


def coefficient_records(model: str, row: Poly) -> list[tuple[tuple[int, ...], int]]:
    """A polynomial row's coefficient records, (indices, value), in record
    order: by exponents (u, z, v).  IntegralityError unless the row is
    integral."""
    return row.to_records(_ORDER[model])


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

    def _load(self, model, n_max):
        data = self.path.read_bytes()
        # split leaves "" last unless the last line lacks its newline
        lines = data.decode(errors="replace").split("\n")
        last = len(lines)
        cells = self._cells
        for lineno, line in enumerate(lines, 1):
            head = lineno > 1 and _CANONICAL(line)
            if head:
                m = head[1]
                if model is None or m == model and int(head[2]) <= n_max:
                    # a kept line as the writer writes it
                    rest = _REST(line, head.end())
                    if rest:
                        value, i, j, k = rest.groups()
                        indices = (None if i is None else (int(i), int(j)) if k is None
                                   else (int(i), int(j), int(k)))
                        if len(indices or ()) in _WIDTHS[m]:
                            cells.setdefault((m, int(head[2]), int(head[3])), {})[indices] = int(value)
                            continue
                elif lineno < last and line[-1:] == "}":
                    # a whole record of another model or a larger n; the
                    # last line, maybe torn, is always read
                    continue
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                if lineno < last:
                    raise CacheError(f"{self.path}:{lineno}: unparsable cache record") from None
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

    def _append(self, rows: dict):
        """Write the records of rows, {(model, n, g2): [(indices, value)]},
        that the file lacks, all in one locked append.

        Under the lock: mend the last line, then write the header if the
        file is empty.
        """
        new = {}
        for key, records in rows.items():
            held = self._cells.get(key, {})
            missing = {indices: value for indices, value in records if indices not in held}
            if missing:
                new[key] = missing
        if not new:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [record_line(*key, indices, value)
                 for key, cells in new.items() for indices, value in cells.items()]
        with self.path.open("ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)   # released when the file closes
            _mend_last_line(fh)
            if not fh.seek(0, os.SEEK_END):
                lines.insert(0, json.dumps(HEADER) + "\n")
            fh.write("".join(lines).encode())
        for key, cells in new.items():
            self._cells.setdefault(key, {}).update(cells)

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
        record, and nothing is appended.  A row that `load` served is
        skipped: it was built from exactly those records.  A view of
        every model has no table to store (ValueError).
        """
        model = self._view_model()
        rows = {}
        for (n, g2), poly in entries.items():
            key = (model, n, g2)
            if self._served.get(key) is poly:
                continue
            records = coefficient_records(model, poly)
            records.append((None, sum(poly.terms.values())))
            held = self._cells.get(key)
            if held:
                row = dict(records)
                for indices, value in held.items():
                    recomputed = row.get(indices, 0)
                    if recomputed != value:
                        cell = ",".join(map(str, (n, g2, *(indices or ()))))
                        raise CacheError(f"{self.path}: {model}[{cell}]: "
                                         f"cached {value}, recomputed {recomputed}")
            rows[key] = records
        self._append(rows)

    # -- single cells and rows ---------------------------------------------

    def get_scalar(self, model: str, n: int, g2: int,
                   indices: tuple[int, ...] | None = None) -> int | None:
        cells = self._cells.get((model, n, g2))
        return None if cells is None else cells.get(indices)

    def put_scalar(self, model: str, n: int, g2: int, value: int,
                   indices: tuple[int, ...] | None = None):
        self._append({(model, n, g2): [(indices, value)]})

    def get_row(self, model: str, n: int, g2: int) -> Poly | None:
        """Rebuild a stored polynomial row; None unless it is complete.
        CacheError names the file and the row if one of its z or v indices
        is above EXP_MAX."""
        cells = self._cells.get((model, n, g2), {})
        total = cells.get(None)
        if total is None:
            return None
        try:
            row = Poly.from_records(_ORDER[model], cells)
        except ExponentRangeError:
            # the z and v indices are every index after i
            top = max(max(indices[1:]) for indices in cells if indices)
            raise CacheError(f"{self.path}: {model}[{n},{g2}]: z or v index {top} "
                             f"is above {EXP_MAX}, out of range") from None
        return row if sum(row.terms.values()) == total else None

    def put_row(self, model: str, n: int, g2: int, poly: Poly, total: int):
        self._append({(model, n, g2): coefficient_records(model, poly) + [(None, int(total))]})
