"""Shared exception types.

Every failure mode in the math path is a loud error: silent zeros or
float fallbacks are never acceptable in an exact-enumeration library.
"""


class WindowError(Exception):
    """A truncated series was asked for a coefficient it does not hold."""


class NonDivisibleError(Exception):
    """An exact division (by z, or by an integer) left a remainder."""


class MissingEntryError(Exception):
    """A recurrence needed a table entry that has not been computed yet."""


class IntegralityError(Exception):
    """A final count came out non-integral, signalling an implementation bug."""


class CacheError(ValueError):
    """The count cache file is not a readable surfcount cache."""


class ExponentRangeError(Exception):
    """A polynomial would hold a z or v exponent above `poly.EXP_MAX` (511),
    past the 10-bit fields of its packed keys.  Raised where the key is
    made, so an out-of-range monomial never aliases another one."""
