"""Persistent cache of computed counts.

Newline-delimited JSON, append-only, one record per stored integer, with
a version header.  Values are decimal strings (counts overflow 64 bits
well before the table sizes this package targets).  A polynomial row
(model, n, g2) is trusted only once its row marker, the record without
indices holding the evaluation at all-ones, is present; the coefficient
records then reconstruct the polynomial exactly.

A run that dies mid-append can leave a last line without its newline.
Loading drops such a line if it does not parse (with a warning on
stderr) and cuts it off the file before the next append; an unparsable
line anywhere else raises CacheError.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import CacheError
from .poly import Poly

HEADER = {"format": "surfcount-cache", "version": 1}


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
        if self.indices is not None:
            for name, idx in zip(("i", "j", "k"), self.indices):
                out[name] = idx
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CountRecord":
        indices = None
        if "i" in d:
            indices = tuple(d[name] for name in ("i", "j", "k") if name in d)
        return cls(d["model"], d["n"], d["g2"], int(d["value"]), indices)


def default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "surfcount" / "counts.ndjson"


class CountCache:
    """In-memory view over the append-only record file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.records: dict[tuple, int] = {}
        # (size, prefix): cut the file to size and write prefix before the
        # next append, to repair a last line that lacks its newline
        self._repair: tuple[int, str] | None = None
        if self.path.exists():
            self._load()

    def _load(self):
        data = self.path.read_bytes()
        # split leaves "" last unless the last line lacks its newline
        lines = data.decode(errors="replace").split("\n")
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rec = None if lineno == 1 else CountRecord.from_dict(obj)
            except (ValueError, KeyError, TypeError):
                if lineno < len(lines):
                    raise CacheError(
                        f"{self.path}:{lineno}: unparsable cache record") from None
                print(f"warning: dropping torn last line {lineno} of {self.path}",
                      file=sys.stderr)
                self._repair = (data.rfind(b"\n") + 1, "")
                return
            if rec is None:
                if not isinstance(obj, dict) or obj.get("format") != HEADER["format"]:
                    raise CacheError(f"not a surfcount cache: {self.path}")
            else:
                self.records[(rec.model, rec.n, rec.g2, rec.indices)] = rec.value
        if lines[-1]:
            self._repair = (len(data), "\n")

    def _append(self, records):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            if self._repair is not None:
                size, prefix = self._repair
                fh.truncate(size)
                fh.seek(0, os.SEEK_END)
                fh.write(prefix)
                self._repair = None
            if fh.tell() == 0:
                fh.write(json.dumps(HEADER) + "\n")
            for rec in records:
                fh.write(json.dumps(rec.as_dict()) + "\n")
                self.records[(rec.model, rec.n, rec.g2, rec.indices)] = rec.value

    # -- scalar tables -------------------------------------------------

    def get_scalar(self, model: str, n: int, g2: int,
                   indices: tuple[int, ...] | None = None) -> int | None:
        return self.records.get((model, n, g2, indices))

    def put_scalar(self, model: str, n: int, g2: int, value: int,
                   indices: tuple[int, ...] | None = None):
        if self.get_scalar(model, n, g2, indices) is None:
            self._append([CountRecord(model, n, g2, value, indices)])

    # -- polynomial rows -----------------------------------------------

    def get_row(self, model: str, n: int, g2: int) -> Poly | None:
        """Rebuild the stored polynomial; None unless the row marker exists."""
        if self.get_scalar(model, n, g2) is None:
            return None
        terms = {}
        for (m, nn, gg, idx), value in self.records.items():
            if m == model and nn == n and gg == g2 and idx is not None:
                exps = idx if len(idx) == 3 else (idx[0], idx[1], 0)
                # stored index order is (i, j[, k]) = (u, z[, v]) for maps
                # and (u, v, z) -> poly slots (u, z, v) for bipartite
                if m == "bipartite":
                    exps = (idx[0], idx[2], idx[1])
                terms[exps] = value
        return Poly.from_terms(terms)

    def put_row(self, model: str, n: int, g2: int, poly: Poly, total: int):
        if self.get_scalar(model, n, g2) is not None:
            return
        records = []
        for (eu, ez, ev), c in sorted(poly.items()):
            assert c.denominator == 1
            if model == "bipartite":
                indices = (eu, ev, ez)
            else:
                indices = (eu, ez)
            records.append(CountRecord(model, n, g2, c.numerator, indices))
        records.append(CountRecord(model, n, g2, total))
        self._append(records)
