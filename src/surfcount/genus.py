"""Half-integer genus bookkeeping.

Genus lives in (1/2)N, so everywhere in this package it is stored doubled
as a plain non-negative int ``g2 = 2g``.  Parity of ``g2`` tells integer
genus apart from the half-integer (non-orientable only) values, and the
Euler characteristic 2 - 2g = 2 - g2 stays integral.
"""

from __future__ import annotations

import re
from fractions import Fraction


def genus_label(g2: int) -> str:
    """Human form: 0, 1/2, 1, 3/2, ..."""
    if g2 < 0:
        raise ValueError(f"doubled genus must be >= 0, got {g2}")
    return str(g2 // 2) if g2 % 2 == 0 else f"{g2}/2"


_SPELLING = re.compile(r"([0-9]+)(?:/([0-9]+)|\.[0-9]+)?")


def parse_genus(text: str) -> int:
    """Parse "2", "7/2" or "3.5" into the doubled-genus integer.

    Only these spellings are accepted and a decimal is read exactly:
    anything that is not a non-negative half-integer is a ValueError.
    """
    match = _SPELLING.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"genus must be written n, n/2 or n.d: {text!r}")
    if match[2] is not None:
        if match[2] != "2":
            raise ValueError(f"genus denominator must be 2: {text!r}")
        return int(match[1])
    g2 = 2 * Fraction(match[0])
    if g2.denominator != 1:
        raise ValueError(f"genus must be a half-integer: {text!r}")
    return g2.numerator
