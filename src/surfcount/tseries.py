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

Products go through one kernel, `TSeries.dot`: the sum of c * a * b over
(c, TSeries a, TSeries b) triples with rational weights c.  A product
with an exact zero factor adds nothing.  The sum of the others is exact,
its zero ends trimmed, when every product is; else it is known to the
smallest of their bounds (the product rule above) and starts at the
smallest a.min_order + b.min_order among them.  Only the orders inside
that window are computed, with one `Poly.dot` per order, so no product
series or partial sum is ever built; a caller that reads less passes
`top`, and the window ends there.  A product is the one-triple case.
A square, a triple whose two factors are the same series object, pairs
each two orders i < j once at weight 2c, and each diagonal order once.
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
        return TSeries.dot(((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def dot(cls, triples, top: int | None = None) -> "TSeries":
        """Sum of c * a * b over (c, TSeries a, TSeries b) triples, c an int
        or a Fraction.

        A product with an exact zero factor adds nothing, window included.
        Every other product starts at a.min_order + b.min_order.  It is
        exact when both factors are; else it is known to
        min(A + valuation(b), B + valuation(a)) over the bounded ones of
        A = a.max_order, B = b.max_order.  The sum is exact, its zero ends
        trimmed, when every product is; else it is known to the smallest
        product bound and starts at the smallest product start.

        `top` is the highest order the caller reads: a bounded sum is then
        computed only to min(that bound, top), but never ends below its
        start, so its window is never empty.  An exact sum stays exact.
        """
        prods, starts, tops = [], [], []
        for c, a, b in triples:
            aval, bval = a.valuation(), b.valuation()
            if aval is _INF or bval is _INF:
                continue
            if c:
                prods.append((c, a, b))
            starts.append(a.min_order + b.min_order)
            tops.extend(end + val for end, val in ((a.max_order, bval), (b.max_order, aval))
                        if end is not None)
        hi = min(tops, default=None)
        if hi is not None and top is not None:
            hi = max(min(hi, top), min(starts))
        acc: dict[int, list] = {}
        for c, a, b in prods:
            bn = list(b.enum_nonzero())
            if not bn:
                continue
            # a square pairs orders i <= j only, the mirrored i < j at 2c
            square = a is b
            c2 = 2 * c if square else c
            for i, (ka, pa) in enumerate(a.enum_nonzero()):
                row = bn[i:] if square else bn
                if hi is not None and ka + row[0][0] > hi:
                    break
                for kb, pb in row:
                    k = ka + kb
                    if hi is not None and k > hi:
                        break
                    w = c2 if kb != ka else c
                    if k in acc:
                        acc[k].append((w, pa, pb))
                    else:
                        acc[k] = [(w, pa, pb)]
        sums = {k: Poly.dot(v) for k, v in acc.items()}
        if hi is None:
            return cls.exact(sums)
        lo = min(starts)
        return cls(lo, [sums.get(k, ZERO) for k in range(lo, hi + 1)], hi)

    def scale(self, value) -> "TSeries":
        if isinstance(value, Poly):
            return TSeries(self.min_order, [p * value for p in self.coeffs], self.max_order)
        return TSeries(self.min_order, [p.scale(value) for p in self.coeffs], self.max_order)

    def dt(self) -> "TSeries":
        """d/dt; a bounded window conservatively drops its top order."""
        coeffs = [p.scale(k) for k, p in zip(range(self.min_order, self.min_order + len(self.coeffs)), self.coeffs)]
        hi = None if self.max_order is None else self.max_order - 1
        if hi is not None and hi < self.min_order - 1:
            raise WindowError("empty validity window after d/dt")
        return TSeries(self.min_order - 1, coeffs, hi)

    def t_dt(self, shift: int = 0) -> "TSeries":
        """t * d/dt - shift, which is order-diagonal and loses no window:
        the coefficient at t^k is multiplied by k - shift."""
        lo = self.min_order - shift
        coeffs = [p.scale(k) for k, p in zip(range(lo, lo + len(self.coeffs)), self.coeffs)]
        return TSeries(self.min_order, coeffs, self.max_order)

    def shift_t(self, k: int) -> "TSeries":
        """Multiply by t^k (k may be negative: Laurent shift)."""
        hi = None if self.max_order is None else self.max_order + k
        return TSeries(self.min_order + k, list(self.coeffs), hi)

    def map(self, fn) -> "TSeries":
        """fn applied to every coefficient, window kept: fn is linear, such
        as a substitution or a change of basis."""
        return TSeries(self.min_order, [fn(p) for p in self.coeffs], self.max_order)

    def div_z(self) -> "TSeries":
        return self.map(Poly.div_z)

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
