"""Persistent cache of the polynomial rows of the count tables.

Newline-delimited JSON, append-only, after the header line
`{"format": "surfcount-cache", "version": 2}`.  Only the polynomial rows
(model, n, g2) of `maps` and `bipartite` are stored, one line per row:

    {"model": "maps", "n": 5, "g2": 1, "total": "10062", "c": [1, 5, "386", 2, 4, "2480", ...]}

`c` is the row's coefficient records, flat: each term's indices, then
its value.  The index order is this module's: maps (i, j) = (u, z),
bipartite (i, j, k) = (u, v, z); the packed key layout is `poly`'s.
Values and the total (the row's value at all-ones, the scalar maps
count) are decimal strings: counts overflow 64 bits well before the
table sizes this package targets.  The scalar and one-face tables are
not cached: they recompute faster than their rows parse.  A table's
`entries` go in through `load` and out through `store`, which writes
every new row of a run in one append.

A table run loads the view of one model up to one n: it skips, unparsed,
each line that ends in `}` and has the canonical start `{"model":
"<m>", "n": <digits>, "g2": <digits>,` (at most 640 digits each) of
another model or a larger n.  The header and the last line, which may
be torn, are always read, and so is every line of another shape, so a
malformed line is still loud; a value corrupted in a skipped line is
caught by the first run that reads that row.  Every line read goes
through `json.loads`, and its shape is checked: a known model,
non-negative integers n, g2 and indices, as many indices per term as
the model has variables, no index tuple twice, decimal strings for the
values and the total, and values that sum to the total.  Two lines of
one row are one row if they are equal, else an error.  A file of
another version, the record-per-line version 1 among them, is not read
or rewritten: the error says to delete it.

Coefficients stay ints all the way from the file to a row's `Poly` and
back: a served row is `Poly.from_records` of its records, and a z or v
index above `poly.EXP_MAX` raises CacheError; `coefficient_records` is
`Poly.to_records`, a row's records in record order (by exponents (u, z,
v)), and `store` and the CLI's coefficient output both go through it.
Every row line is `json.dumps` of its dict, written by `_row_line`.  A
served row must be homogeneous of degree n + 2 - g2 and symmetric,
maps under u <-> z (vertex-face duality) and bipartite under u <-> v,
and a cached row that a table already holds, one of its seeds, must
equal it.  Storing a table compares each row the file holds, other
than those the cache served, with the recomputed row, and appends the
rows the file lacks.

Each append holds an exclusive `flock` on the file, so runs sharing one
file write one header and never interleave their lines.  A run that
dies mid-append can leave a last line without its newline.  Every
prefix of a row line is invalid JSON, so loading drops a last line that
does not parse (with a warning on stderr), which loses one row, and the
next append cuts it off the file under the lock; a complete last line
only gets its newline.  Such a line anywhere else, a line that parses
but fails the shape check, a row that differs from another line of it,
from its recomputed or its seeded value, and a served row of another
degree or without its symmetry raise CacheError naming the file and
the line or the row.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import sys
from pathlib import Path

from .errors import CacheError, ExponentRangeError
from .poly import EXP_MAX, Poly

HEADER = {"format": "surfcount-cache", "version": 2}

# the index order of a row's coefficient records, by model; a row is
# symmetric under the swap of its first two variables
_ORDER = {"maps": "uz", "bipartite": "uvz"}
# the number of indices of a row's coefficient records
ROW_WIDTH = {model: len(order) for model, order in _ORDER.items()}

# A number as json.dumps writes it, of at most 640 digits: int() reads
# those under any limit on its digits (640 is the lowest one Python
# accepts), and a line with a longer one is read.
_NAT = "(0|[1-9][0-9]{0,639})"
# the start of a row line as json.dumps writes it: model, n and g2, read
# off a line that a request may skip unparsed
_CANONICAL = re.compile('{"model": "(%s)", "n": %s, "g2": %s,'
                        % ("|".join(_ORDER), _NAT, _NAT)).match


def default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "surfcount" / "counts.ndjson"


def coefficient_records(model: str, row: Poly) -> list[tuple[tuple[int, ...], int]]:
    """A polynomial row's coefficient records, (indices, value), in record
    order: by exponents (u, z, v).  IntegralityError unless the row is
    integral."""
    return row.to_records(_ORDER[model])


def _row_line(model: str, n: int, g2: int, cells: dict) -> str:
    """One row's line, cells {indices: value}: json.dumps of its dict and a newline."""
    c = [x for indices, value in cells.items() for x in (*indices, str(value))]
    return json.dumps({"model": model, "n": n, "g2": g2,
                       "total": str(sum(cells.values())), "c": c}) + "\n"


def _parse_row(obj) -> tuple[tuple[str, int, int], dict]:
    """Check one parsed row line: (model, n, g2) and its {indices: value}.
    ValueError says what is wrong."""
    try:
        model, n, g2, total, c = obj["model"], obj["n"], obj["g2"], obj["total"], obj["c"]
        step = ROW_WIDTH[model] + 1
    except (KeyError, TypeError):
        raise ValueError("keys do not fit a row") from None
    if len(obj) != 5 or type(c) is not list or len(c) % step:
        raise ValueError(f"c must list {step - 1} indices and a value per term")
    columns = [c[k::step] for k in range(step)]
    values = columns.pop()
    if not all(type(x) is int and x >= 0 for col in [(n, g2), *columns] for x in col):
        raise ValueError("n, g2 and indices must be non-negative integers")
    if not all(type(x) is str and x.isascii() and x.isdecimal() for x in (total, *values)):
        raise ValueError("values and total must be decimal strings")
    cells = dict(zip(zip(*columns), map(int, values)))
    if len(cells) != len(values):
        raise ValueError("an index tuple repeats")
    if sum(cells.values()) != int(total):
        raise ValueError(f"{model}[{n},{g2}]: coefficients sum to "
                         f"{sum(cells.values())}, not to the total {total}")
    return (model, n, g2), cells


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
    """In-memory view over the append-only row file."""

    def __init__(self, path: str | Path, model: str | None = None, n_max: int | None = None):
        """Load the file at path, every row of it.  Given model and n_max,
        the view of the table runs: it keeps only the rows of model with
        n <= n_max, and skips the lines of other rows unparsed where their
        start is canonical.  A model needs its n_max (ValueError)."""
        if model is not None and n_max is None:
            raise ValueError(f"the view of {model!r} needs n_max")
        self.path = Path(path)
        self.model = model
        # (model, n, g2) -> the row's {indices: value}
        self._rows: dict[tuple[str, int, int], dict] = {}
        # (model, n, g2) -> the row `load` put into a table, built from
        # exactly the line the file holds for it
        self._served: dict[tuple[str, int, int], Poly] = {}
        if self.path.exists():
            self._load(model, n_max)

    @property
    def records(self) -> dict[tuple, int]:
        """Every stored value, keyed by (model, n, g2, indices): the
        coefficients, and each row's total keyed by indices None."""
        return {(*key, indices): value for key, cells in self._rows.items()
                for indices, value in [*cells.items(), (None, sum(cells.values()))]}

    def _load(self, model, n_max):
        data = self.path.read_bytes()
        # split leaves "" last unless the last line lacks its newline
        lines = data.decode(errors="replace").split("\n")
        last = len(lines)
        rows = self._rows
        for lineno, line in enumerate(lines, 1):
            head = lineno > 1 and model is not None and _CANONICAL(line)
            if (head and (head[1] != model or int(head[2]) > n_max)
                    and lineno < last and line[-1:] == "}"):
                # a whole row of another model or a larger n; the last
                # line, maybe torn, is always read
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
                if obj.get("version") != HEADER["version"]:
                    raise CacheError(f"{self.path}: cache file of format version "
                                     f"{obj.get('version')}, not {HEADER['version']}: delete it")
                continue
            try:
                key, cells = _parse_row(obj)
            except ValueError as exc:
                raise CacheError(f"{self.path}:{lineno}: malformed cache record: {exc}") from None
            if model is None or key[0] == model and key[1] <= n_max:
                held = rows.setdefault(key, cells)
                if held is not cells and held != cells:
                    raise CacheError(f"{self.path}:{lineno}: {key[0]}[{key[1]},{key[2]}]: "
                                     "row differs from an earlier line of it")

    def _append(self, rows: dict):
        """Write the rows, {(model, n, g2): {indices: value}}, that the file
        lacks, all in one locked append.  A row the file holds must equal
        the one given, else CacheError names the file and the row, and
        nothing is appended.

        Under the lock: mend the last line, then write the header if the
        file is empty.
        """
        new = {}
        for key, cells in rows.items():
            held = self._rows.get(key)
            if held is None:
                new[key] = cells
            elif held != cells:
                raise CacheError(f"{self.path}: {key[0]}[{key[1]},{key[2]}]: "
                                 "cached row differs from the recomputed one")
        if not new:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [_row_line(*key, cells) for key, cells in new.items()]
        with self.path.open("ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)   # released when the file closes
            _mend_last_line(fh)
            if not fh.seek(0, os.SEEK_END):
                lines.insert(0, json.dumps(HEADER) + "\n")
            fh.write("".join(lines).encode())
        self._rows.update(new)

    # -- tables ----------------------------------------------------------

    def _view_model(self) -> str:
        if self.model is None:
            raise ValueError("load and store need the view of one model: "
                             "CountCache(path, model, n_max)")
        return self.model

    def load(self, entries: dict, n_max: int):
        """Copy the cached rows of the view's model with n <= n_max into a
        polynomial table's entries, keyed (n, g2).

        A served row must be homogeneous of degree n + 2 - g2, the degree
        of every cell of these tables, which read genus off degree, and
        symmetric under the swap of its first two variables; and a row
        already in entries, one of the table's seeds, must equal its
        cached row.  Else CacheError names the file and the row.  A view
        of every model has no table to load into (ValueError).
        """
        model = self._view_model()
        u, w = _ORDER[model][:2]
        for key, cells in self._rows.items():
            _, n, g2 = key
            if n > n_max:
                continue
            row = self.get_row(model, n, g2)
            if not row.is_homogeneous(n + 2 - g2):
                raise CacheError(f"{self.path}: {model}[{n},{g2}]: cached row is not "
                                 f"homogeneous of degree {n + 2 - g2}")
            if any(cells.get((x[1], x[0], *x[2:]), 0) != c for x, c in cells.items()):
                raise CacheError(f"{self.path}: {model}[{n},{g2}]: cached row is not "
                                 f"symmetric under {u} <-> {w}")
            held = entries.setdefault((n, g2), row)
            if held is row:
                self._served[key] = row
            elif held != row:
                raise CacheError(f"{self.path}: {model}[{n},{g2}]: cached {row}, seed {held}")

    def store(self, entries: dict):
        """Append every row of a table, of the view's model, that the file lacks.

        A row the file holds must equal the recomputed one, else
        CacheError names the file and the row, and nothing is appended.
        A row that `load` served is skipped: it was built from that very
        line.  A view of every model has no table to store (ValueError).
        """
        model = self._view_model()
        self._append({(model, n, g2): dict(coefficient_records(model, poly))
                      for (n, g2), poly in entries.items()
                      if self._served.get((model, n, g2)) is not poly})

    # -- single rows -------------------------------------------------------

    def get_scalar(self, model: str, n: int, g2: int) -> int | None:
        """A stored row's total, its value at all-ones; None if not stored."""
        cells = self._rows.get((model, n, g2))
        return None if cells is None else sum(cells.values())

    # Nothing is stored but whole rows.  The method stays because the
    # benchmark's traced mode (perfbench/layers.py) wraps it by name, until
    # that mode takes its cache metrics from the run's stats.
    def put_scalar(self, *args, **kwargs):
        raise ValueError("the cache stores whole rows only: use put_row")

    def get_row(self, model: str, n: int, g2: int) -> Poly | None:
        """Rebuild a stored polynomial row; None if not stored.  CacheError
        names the file and the row if one of its z or v indices is above
        EXP_MAX."""
        cells = self._rows.get((model, n, g2))
        if cells is None:
            return None
        try:
            return Poly.from_records(_ORDER[model], cells)
        except ExponentRangeError:
            # the z and v indices are every index after i
            top = max(max(indices[1:]) for indices in cells)
            raise CacheError(f"{self.path}: {model}[{n},{g2}]: z or v index {top} "
                             f"is above {EXP_MAX}, out of range") from None

    def put_row(self, model: str, n: int, g2: int, poly: Poly, total: int):
        """Store one row; total must be its value at all-ones (ValueError)."""
        cells = dict(coefficient_records(model, poly))
        if sum(cells.values()) != total:
            raise ValueError(f"{model}[{n},{g2}]: total {total} is not the sum of the row's "
                             "coefficients")
        self._append({(model, n, g2): cells})
