"""Sparse exact polynomials in the variables (u, z, v).

Coefficients are rationals, stored as integer numerators over a single
positive denominator per polynomial.  Integer polynomials (the common
case: every final count table is integral) therefore multiply in pure
int arithmetic.  Exponent triples are packed into one int so that
monomial multiplication is a single addition: e_u << 20 | e_z << 10 |
e_v, u on top and unbounded above 10-bit z and v fields.  A key carries
exponents only: in the polynomial tables (`table.py`) every cell is
homogeneous, and its degree is its genus.

The z and v exponents range over 0..EXP_MAX = 511, so a key is a
single-digit CPython int (below 2^30) while e_u < 1024, and adding and
hashing keys costs one digit.  Bit 9 of each low field is a guard bit,
clear in every stored key.  The sum of two stored keys never carries
from one field into the next (511 + 511 < 1024) and sets a guard bit
exactly where its z or v exponent passed 511.  A z or v exponent above
511 raises ExponentRangeError where its key would be made, never a
wrong result: `Poly.dot` ORs its output keys once, `_pack` (so
`from_terms`, `const`, `coeff` and the series builders) and
`from_records` check their arguments, `from_sp` the v exponents it
makes (i + j) and `swap_uv` the u exponents it moves into v.  The other
operations only lower z or v exponents or move them into u, and need no
check: `charge_shift`, `to_sp`, `div_z`, `div_u`, `v_to_u`,
`parts_by_degree` and `degree_at_least` (`to_sp` calls a u exponent
above 511, which no mirror can match, not symmetric).  No other module
reads or makes a key: integer records, indices and value, go in through
`from_records` and out through `to_records`, one pass each.

All multiplication goes through one kernel, `Poly.dot`: the sum of
c * a * b over (c, Poly a, Poly b) triples with rational weights c,
accumulated in ints over one common denominator, with a single Poly
built (and reduced) at the end.  A product is the one-triple case; a
sum of products never builds its products or partial sums, and a square
(both factors one object) multiplies each unordered pair of terms once.

Instances are immutable values; every operation allocates a fresh
polynomial, which makes sharing across threads safe.  Integer rows go in
and out without a Fraction per coefficient: `from_terms` packs int
coefficients as they are, over one denominator for a whole row,
`int_items` reads them back, and `evaluate` at u = z = v = 1 is one sum
of numerators.

`charge_shift` is the one charge-shift operator of the package: the
shift of the charge parameter by +-2, averaged, minus f, in u alone or
in u together with z or v.  The charge-shift weights of every
polynomial table and the shifted identity's second difference are this
operator: a binomial per term and drop in u alone, and in u with w = z
or v one integer recurrence per drop down each part in (u, w).

A polynomial symmetric in u and v is one in s = u + v and p = uv, z
passing through.  `to_sp` writes it in that basis, in the same packed
form with s in the u slot and p in the v slot (`S` and `P`), and
`from_sp` expands it back; both are exact and linear, and `to_sp` is a
ring isomorphism onto its image, so products and sums computed in
(s, z, p) map back to the ones computed in (u, z, v).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import or_

from .errors import ExponentRangeError, IntegralityError, NonDivisibleError

_SHIFT = 10
_MASK = (1 << _SHIFT) - 1
# the largest z or v exponent, and the guard bits (bit 9 of the z and v fields)
EXP_MAX = (1 << _SHIFT - 1) - 1
_GUARD = (EXP_MAX + 1) * ((1 << _SHIFT) + 1)


# k + (e_v - e_u) * _UV_SWAP swaps the u and v fields of key k
_UV_SWAP = (1 << 2 * _SHIFT) - 1


def _out_of_range(what: str, eu: int, ez: int, ev: int) -> ExponentRangeError:
    return ExponentRangeError(f"{what} u^{eu} z^{ez} v^{ev}: a z or v exponent "
                              f"above {EXP_MAX} is out of range")


def _pack(eu: int, ez: int, ev: int) -> int:
    if ez > EXP_MAX or ev > EXP_MAX:
        raise _out_of_range("monomial", eu, ez, ev)
    return (eu << (2 * _SHIFT)) | (ez << _SHIFT) | ev


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> (2 * _SHIFT), (key >> _SHIFT) & _MASK, key & _MASK


# The index orders of integer records, "uz" (e_u, e_z) and "uvz" (e_u,
# e_v, e_z): for each, the key of a record's indices and the indices of a
# key.  Indices out of range go to `_pack`, which raises.
_RECORD_KEYS = {
    "uz": (lambda i, j: i << 2 * _SHIFT | j << _SHIFT if j <= EXP_MAX else _pack(i, j, 0),
           lambda k: (k >> 2 * _SHIFT, k >> _SHIFT & _MASK)),
    "uvz": (lambda i, j, k: i << 2 * _SHIFT | k << _SHIFT | j if (j | k) <= EXP_MAX
            else _pack(i, k, j),
            lambda k: (k >> 2 * _SHIFT, k & _MASK, k >> _SHIFT & _MASK)),
}


def _grlex_key(exps: tuple[int, int, int]):
    # graded lexicographic on (e_u, e_z, e_v), largest first when printing
    return (sum(exps), exps)


class Poly:
    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[int, int] | None = None, den: int = 1):
        """Internal constructor: packed-exponent keys, integer numerators.

        The instance may keep `terms` itself rather than a copy, so the
        caller hands over a dict it has just built and never touches
        again; every caller in this package does.
        """
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        if den < 0:
            den = -den
            terms = {k: -c for k, c in terms.items()} if terms else None
        if terms and 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        if not terms:
            terms, den = {}, 1
        elif den != 1:
            g = den
            for c in terms.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        self.terms = terms
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def const(cls, value) -> "Poly":
        f = Fraction(value)
        return cls({_pack(0, 0, 0): f.numerator}, f.denominator)

    @classmethod
    def from_terms(cls, mapping, den: int = 1) -> "Poly":
        """Build from {(e_u, e_z, e_v): rational} over den; int values stay
        ints, so a row of int cells over one denominator makes no Fraction."""
        terms = {}
        for exps, c in mapping.items():
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            terms[_pack(*exps)] = c
        if all(type(c) is int for c in terms.values()):
            return cls(terms, den)
        fracs = {k: Fraction(c) for k, c in terms.items()}
        lcd = lcm(*(f.denominator for f in fracs.values()))
        return cls({k: int(f * lcd) for k, f in fracs.items()}, den * lcd)

    @classmethod
    def from_records(cls, order: str, records: dict) -> "Poly":
        """The integral polynomial of {indices: int}, indices a term's
        exponents in `order`, "uz" or "uvz".  ExponentRangeError if a z
        or v index is above EXP_MAX."""
        key = _RECORD_KEYS[order][0]
        return cls({key(*indices): c for indices, c in records.items()})

    @classmethod
    def sum(cls, polys) -> "Poly":
        """Sum an iterable of polynomials without quadratic re-copying."""
        polys = [p for p in polys if p.terms]
        if not polys:
            return _ZERO
        den = 1
        for p in polys:
            den = den * p.den // gcd(den, p.den)
        acc: dict[int, int] = {}
        for p in polys:
            f = den // p.den
            for k, c in p.terms.items():
                acc[k] = acc.get(k, 0) + c * f
        return cls(acc, den)

    @classmethod
    def dot(cls, triples) -> "Poly":
        """Sum of c * a * b over (c, Poly a, Poly b) triples, c an int or
        a Fraction.

        Every product is brought over the lcm of the c.denominator * a.den
        * b.den and added term by term into one int accumulator.  When a
        and b are one object, the product visits term pairs i <= j only.
        """
        triples = [(c.numerator, c.denominator * a.den * b.den, a.terms, b.terms)
                   for c, a, b in triples if c and a.terms and b.terms]
        if not triples:
            return _ZERO
        den = 1
        for _, d, _, _ in triples:
            if d != 1:
                den = den * d // gcd(den, d)
        acc: dict[int, int] = {}
        get = acc.get
        for c, d, x, y in triples:
            f = c * (den // d)
            if x is y:
                items = list(x.items())
                for i, (k1, c1) in enumerate(items, 1):
                    cf = c1 * f
                    k = k1 + k1
                    acc[k] = get(k, 0) + cf * c1
                    cf += cf    # each pair i < j stands for itself and its mirror
                    for k2, c2 in items[i:]:
                        k = k1 + k2
                        acc[k] = get(k, 0) + cf * c2
                continue
            if len(x) > len(y):
                x, y = y, x
            y = y.items()
            for k1, c1 in x.items():
                c1 *= f
                for k2, c2 in y:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        if reduce(or_, acc) & _GUARD:
            raise _out_of_range("product term", *_unpack(next(k for k in acc if k & _GUARD)))
        return cls(acc, den)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Iterate ((e_u, e_z, e_v), Fraction) pairs (unordered)."""
        den = self.den
        for k, c in self.terms.items():
            yield _unpack(k), Fraction(c, den)

    def int_items(self):
        """Iterate ((e_u, e_z, e_v), int) pairs (unordered) of an integral
        polynomial; IntegralityError if a coefficient is not an integer."""
        if self.den != 1:
            raise IntegralityError(f"coefficients over denominator {self.den} are not integers")
        return ((_unpack(k), c) for k, c in self.terms.items())

    def to_records(self, order: str) -> list[tuple[tuple[int, ...], int]]:
        """The terms as (indices, int) records, indices in `order` as in
        `from_records`, sorted by exponents (e_u, e_z, e_v);
        IntegralityError if a coefficient is not an integer."""
        if self.den != 1:
            raise IntegralityError(f"coefficients over denominator {self.den} are not integers")
        indices = _RECORD_KEYS[order][1]
        return [(indices(k), c) for k, c in sorted(self.terms.items())]

    def coeff(self, exps: tuple[int, int, int]) -> Fraction:
        return Fraction(self.terms.get(_pack(*exps), 0), self.den)

    def is_homogeneous(self, degree: int) -> bool:
        return all((k >> 2 * _SHIFT) + ((k >> _SHIFT) & _MASK) + (k & _MASK) == degree
                   for k in self.terms)

    def is_integral(self) -> bool:
        return self.den == 1

    def has_nonnegative_coeffs(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def evaluate(self, u=1, z=1, v=1) -> Fraction:
        if u == z == v == 1:
            return Fraction(sum(self.terms.values()), self.den)
        u, z, v = Fraction(u), Fraction(z), Fraction(v)
        total = Fraction(0)
        for (eu, ez, ev), c in self.items():
            total += c * u**eu * z**ez * v**ev
        return total

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.den == other.den:
            out = dict(self.terms)
            for k, c in other.terms.items():
                out[k] = out.get(k, 0) + c
            return Poly(out, self.den)
        den = self.den * other.den // gcd(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {k: c * fa for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c * fb
        return Poly(out, den)

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.dot(((1, self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "Poly":
        if type(value) is int:
            if not value:
                return _ZERO
            return Poly({k: c * value for k, c in self.terms.items()}, self.den)
        f = Fraction(value)
        if not f:
            return _ZERO
        return Poly(
            {k: c * f.numerator for k, c in self.terms.items()},
            self.den * f.denominator,
        )

    # -- structural operations ------------------------------------------

    def charge_shift(self, slot: int | None = None, floor: int = 0) -> "Poly":
        """The charge shift (f|x->x+2 + f|x->x-2)/2 - f, where x is u alone
        (slot None) or u together with the variable of exponent slot
        `slot` (1: z, 2: v); the others pass through.  Terms of degree
        below `floor` are left out.

        The odd powers of 2 cancel in the sum, so the shift is the sum over
        even r >= 2 of 2^r h_r, h_r = L^r f / r! for L = d/du (+ d/dw, w
        the slot's variable), r up to the degree of f.  In u alone h_r of
        u^p is C(p, r) u^(p - r).  With two slots each homogeneous part in
        (u, w), with its pass-through exponent, is a dense list h of the
        coefficients of u^i w^(d - i), and each drop is one step
        h_r[i] = ((i + 1) h_(r-1)[i + 1] + (d - r + 1 - i) h_(r-1)[i]) / r,
        exact since h_r sends u^p w^q to the integer sum of C(p, i) C(q, j)
        u^i w^j over i + j = p + q - r.  A part costs O(d * top) steps for
        its highest drop top even if it holds one term (u^2000 at floor
        0); the parts of a table row are full.  No substitution is formed,
        nor any term below the floor.
        """
        unit_u = 1 << 2 * _SHIFT
        acc: dict[int, int] = {}
        get = acc.get
        if slot is None:
            # u alone (q = 0): one term per drop
            for k, c in self.terms.items():
                p = k >> 2 * _SHIFT
                top = min(p, p + ((k >> _SHIFT) & _MASK) + (k & _MASK) - floor)
                for r in range(2, top + 1, 2):
                    key = k - r * unit_u
                    acc[key] = get(key, 0) + (comb(p, r) * c << r)
            return Poly(acc, self.den)
        at = (2 - slot) * _SHIFT
        unit_w = 1 << at
        step = unit_u - unit_w
        parts: dict[tuple[int, int], list[int]] = {}
        for k, c in self.terms.items():
            p, q = k >> 2 * _SHIFT, (k >> at) & _MASK
            rest = k - p * unit_u - q * unit_w
            part = parts.get((rest, p + q))
            if part is None:
                part = parts[rest, p + q] = [0] * (p + q + 1)
            part[p] = c
        for (rest, d), h in parts.items():
            top = min(d, d + ((rest >> _SHIFT) & _MASK) + (rest & _MASK) - floor)
            for r in range(1, top + 1):
                # h_r = L h_(r-1) / r, of degree s, from h_(r-1) of degree s + 1
                s = d - r
                h = [((i + 1) * h[i + 1] + (s + 1 - i) * h[i]) // r for i in range(s + 1)]
                if not r & 1:
                    base = rest + s * unit_w     # u^0 w^s; each power moved to u adds step
                    for i, c in enumerate(h):
                        if c:     # a zero's w exponent may lie past its field
                            key = base + i * step
                            acc[key] = get(key, 0) + (c << r)
        return Poly(acc, self.den)

    def v_to_u(self) -> "Poly":
        """Substitute v -> u.  Monomials it merges sum their coefficients:
        u^2 v and u v^2 both become u^3."""
        out: dict[int, int] = {}
        get = out.get
        for k, c in self.terms.items():
            ev = k & _MASK
            k += (ev << 2 * _SHIFT) - ev
            out[k] = get(k, 0) + c
        return Poly(out, self.den)

    def swap_uv(self) -> "Poly":
        """Substitute u <-> v."""
        if self.terms:
            top = max(self.terms)     # the largest u exponent is the largest key's
            if top >> 2 * _SHIFT > EXP_MAX:
                raise _out_of_range("u <-> v of", *_unpack(top))
        return Poly({k + ((k & _MASK) - (k >> 2 * _SHIFT)) * _UV_SWAP: c
                     for k, c in self.terms.items()}, self.den)

    def div_u(self, weights) -> "Poly":
        """Each term u^i z^j v^k divided by weights[i], a positive int."""
        weight = {k: weights[k >> 2 * _SHIFT] for k in self.terms}
        den = lcm(*weight.values())
        return Poly({k: c * (den // weight[k]) for k, c in self.terms.items()}, self.den * den)

    def parts_by_degree(self, d: int, top: int) -> list["Poly"]:
        """The parts of degree d, d - 1, ..., d - top, in that order; terms
        of any other degree are left out."""
        parts = [{} for _ in range(top + 1)]
        for k, c in self.terms.items():
            g = d - (k >> 2 * _SHIFT) - ((k >> _SHIFT) & _MASK) - (k & _MASK)
            if 0 <= g <= top:
                parts[g][k] = c
        return [Poly(part, self.den) for part in parts]

    def degree_at_least(self, low: int) -> "Poly":
        """The terms of degree low and up."""
        return Poly({k: c for k, c in self.terms.items()
                     if (k >> 2 * _SHIFT) + ((k >> _SHIFT) & _MASK) + (k & _MASK) >= low}, self.den)

    def div_z(self) -> "Poly":
        """Exact division by z; every monomial must carry a z."""
        out = {}
        step = 1 << _SHIFT
        for k, c in self.terms.items():
            if not (k >> _SHIFT) & _MASK:
                raise NonDivisibleError(f"monomial {_unpack(k)} has no factor z")
            out[k - step] = c
        return Poly(out, self.den)

    # -- comparisons / display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(("u", "z", "v"), exps)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


_ZERO = Poly()
ZERO = _ZERO
ONE = Poly.const(1)
U = Poly({_pack(1, 0, 0): 1})
Z = Poly({_pack(0, 1, 0): 1})
V = Poly({_pack(0, 0, 1): 1})

# the colour-symmetric basis: s = u + v in the u slot, p = uv in the v slot
S, P = U, V


def to_sp(f: Poly) -> Poly:
    """f, symmetric in u and v, in (s, z, p); ValueError if it is not.

    Each pair u^a v^b + u^b v^a (a > b) is p^b P_(a-b), with P_k = u^k +
    v^k = sum_j (-1)^j k / (k - j) C(k - j, j) s^(k - 2j) p^j by Waring's
    formula, and u^a v^a is p^a.
    """
    terms = f.terms
    waring: dict[int, list] = {}
    out: dict[int, int] = {}
    get = out.get
    for k, c in terms.items():
        a, b = k >> 2 * _SHIFT, k & _MASK
        # a term with e_u above EXP_MAX has no mirror a key can hold
        if a != b and (a > EXP_MAX or terms.get(k + (b - a) * _UV_SWAP) != c):
            raise ValueError(f"not symmetric in u and v: {f}")
        if a < b:
            continue
        base = (k & (_MASK << _SHIFT)) + b     # z^e_z p^b
        d = a - b
        if not d:
            out[base] = get(base, 0) + c
            continue
        if d not in waring:
            waring[d] = [(((d - 2 * j) << 2 * _SHIFT) + j,       # s^(d - 2j) p^j
                          (-1) ** j * d * comb(d - j, j) // (d - j))
                         for j in range(d // 2 + 1)]
        for step, w in waring[d]:
            key = base + step
            out[key] = get(key, 0) + c * w
    return Poly(out, f.den)


def from_sp(f: Poly) -> Poly:
    """f in (s, z, p) expanded back to (u, z, v): s^i p^j is
    sum_r C(i, r) u^(r + j) v^(i - r + j)."""
    out: dict[int, int] = {}
    get = out.get
    for k, c in f.terms.items():
        i, j = k >> 2 * _SHIFT, k & _MASK
        if i + j > EXP_MAX:
            raise _out_of_range("(s, z, p) expansion of", j, (k >> _SHIFT) & _MASK, i + j)
        base = (k & (_MASK << _SHIFT)) + (j << 2 * _SHIFT) + j + i   # u^j z^e_z v^(i + j)
        for r in range(i + 1):
            key = base + r * _UV_SWAP
            out[key] = get(key, 0) + c * comb(i, r)
    return Poly(out, f.den)
