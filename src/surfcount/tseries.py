"""Truncated power series in t (Laurent-capable) with Poly coefficients.

A series holds exact coefficients for the orders min_order .. max_order.
Orders below min_order are exactly zero by construction; orders above
max_order are unknown, and reading one raises WindowError rather than
returning a silent zero.  max_order is None for series that are exact
polynomials in t (initial data, boundary terms), which never constrain
the validity window of a mixed expression.

Windows combine pessimistically: sums keep the smallest max_order, and
a product of a series known to order A (valuation a) with one known to
order B (valuation b) is trusted to min(A + b, B + a).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WindowError
from .poly import Poly, ZERO

_INF = float("inf")


class TSeries:
    __slots__ = ("min_order", "max_order", "coeffs")

    def __init__(self, min_order: int, coeffs: list[Poly], max_order: int | None):
        if max_order is None:
            # exact polynomial in t: trim zero coefficients at both ends
            while coeffs and coeffs[-1].is_zero():
                coeffs.pop()
            while coeffs and coeffs[0].is_zero():
                coeffs.pop(0)
                min_order += 1
            if not coeffs:
                min_order = 0
        else:
            if max_order < min_order:
                raise WindowError(
                    f"empty validity window [{min_order}, {max_order}]"
                )
            if len(coeffs) != max_order - min_order + 1:
                raise ValueError("coefficient list does not match window")
        self.min_order = min_order
        self.coeffs = coeffs
        self.max_order = max_order

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "TSeries":
        return cls(0, [], None)

    @classmethod
    def exact(cls, mapping: dict[int, Poly]) -> "TSeries":
        """Exact polynomial in t from {order: Poly}."""
        if not mapping:
            return cls.zero()
        lo, hi = min(mapping), max(mapping)
        return cls(lo, [mapping.get(k, ZERO) for k in range(lo, hi + 1)], None)

    @classmethod
    def const(cls, value) -> "TSeries":
        p = value if isinstance(value, Poly) else Poly.const(value)
        return cls.exact({0: p})

    @classmethod
    def truncated(cls, mapping: dict[int, Poly], max_order: int, min_order: int | None = None) -> "TSeries":
        if mapping and max(mapping) > max_order:
            raise WindowError(
                f"coefficient at order {max(mapping)} beyond window top {max_order}"
            )
        lo = min(mapping) if mapping else 0
        if min_order is not None:
            lo = min(lo, min_order)
        return cls(lo, [mapping.get(k, ZERO) for k in range(lo, max_order + 1)], max_order)

    # -- inspection -------------------------------------------------------

    @property
    def window(self) -> tuple[int, int | None]:
        return (self.min_order, self.max_order)

    def coeff(self, order: int) -> Poly:
        if order < self.min_order:
            return ZERO
        if self.max_order is None:
            idx = order - self.min_order
            return self.coeffs[idx] if idx < len(self.coeffs) else ZERO
        if order > self.max_order:
            raise WindowError(
                f"order {order} outside validity window [{self.min_order}, {self.max_order}]"
            )
        return self.coeffs[order - self.min_order]

    def enum_nonzero(self):
        for i, p in enumerate(self.coeffs):
            if not p.is_zero():
                yield self.min_order + i, p

    def valuation(self):
        """Order of the first nonzero retained coefficient.

        Returns the effective knowledge bound for all-zero series: one past
        max_order for truncated series, +inf for the exact zero series.
        """
        for k, _ in self.enum_nonzero():
            return k
        return _INF if self.max_order is None else self.max_order + 1

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    def first_nonzero(self):
        for k, p in self.enum_nonzero():
            return k, p
        return None

    def require_order(self, order: int) -> "TSeries":
        if self.max_order is not None and self.max_order < order:
            raise WindowError(
                f"validity window tops out at {self.max_order}, below requested order {order}"
            )
        return self

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        if self.max_order is None and other.max_order is None:
            lo = min(self.min_order, other.min_order)
            hi = max(self.min_order + len(self.coeffs), other.min_order + len(other.coeffs)) - 1
            if hi < lo:
                return TSeries.zero()
            return TSeries(lo, [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)], None)
        lo = min(self.min_order, other.min_order)
        hi = min(s.max_order for s in (self, other) if s.max_order is not None)
        return TSeries(lo, [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)], hi)

    def __neg__(self):
        return TSeries(self.min_order, [-p for p in self.coeffs], self.max_order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        a, b = self, other
        aval, bval = a.valuation(), b.valuation()
        if aval is _INF or bval is _INF:
            return TSeries.zero()
        bounds = []
        if a.max_order is not None:
            bounds.append(a.max_order + bval)
        if b.max_order is not None:
            bounds.append(b.max_order + aval)
        out_max = min(bounds) if bounds else None
        acc: dict[int, Poly] = {}
        for ka, ca in a.enum_nonzero():
            for kb, cb in b.enum_nonzero():
                k = ka + kb
                if out_max is None or k <= out_max:
                    prod = ca * cb
                    if k in acc:
                        acc[k] = acc[k] + prod
                    else:
                        acc[k] = prod
        if out_max is None:
            return TSeries.exact(acc)
        return TSeries.truncated(acc, out_max, min_order=a.min_order + b.min_order)

    __rmul__ = __mul__

    def scale(self, value) -> "TSeries":
        if isinstance(value, Poly):
            if value.is_zero():
                return TSeries.zero() if self.max_order is None else \
                    TSeries(self.min_order, [ZERO] * len(self.coeffs), self.max_order)
            return TSeries(self.min_order, [p * value for p in self.coeffs], self.max_order)
        f = Fraction(value)
        return TSeries(self.min_order, [p.scale(f) for p in self.coeffs], self.max_order)

    def dt(self) -> "TSeries":
        """d/dt; a bounded window conservatively drops its top order."""
        coeffs = [p.scale(k) for k, p in zip(range(self.min_order, self.min_order + len(self.coeffs)), self.coeffs)]
        hi = None if self.max_order is None else self.max_order - 1
        if hi is not None and hi < self.min_order - 1:
            raise WindowError("empty validity window after d/dt")
        return TSeries(self.min_order - 1, coeffs, hi)

    def t_dt(self) -> "TSeries":
        """t * d/dt, which is order-diagonal and loses no window."""
        coeffs = [p.scale(k) for k, p in zip(range(self.min_order, self.min_order + len(self.coeffs)), self.coeffs)]
        return TSeries(self.min_order, coeffs, self.max_order)

    def shift_t(self, k: int) -> "TSeries":
        """Multiply by t^k (k may be negative: Laurent shift)."""
        hi = None if self.max_order is None else self.max_order + k
        return TSeries(self.min_order + k, list(self.coeffs), hi)

    def div_z(self) -> "TSeries":
        return TSeries(self.min_order, [p.div_z() for p in self.coeffs], self.max_order)

    def shift_u(self, delta: int) -> "TSeries":
        return TSeries(self.min_order, [p.shift_u(delta) for p in self.coeffs], self.max_order)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        """Semantic equality: same knowledge bound, same coefficients
        (stored leading zeros are irrelevant)."""
        if not isinstance(other, TSeries):
            return NotImplemented
        if self.max_order != other.max_order:
            return False
        lo = min(self.min_order, other.min_order)
        if self.max_order is None:
            hi = max(self.min_order + len(self.coeffs),
                     other.min_order + len(other.coeffs)) - 1
        else:
            hi = self.max_order
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, hi + 1))

    def __repr__(self):
        hi = "inf" if self.max_order is None else self.max_order
        terms = ", ".join(f"t^{k}: {p}" for k, p in self.enum_nonzero())
        return f"TSeries[{self.min_order}..{hi}]({terms or '0'})"
