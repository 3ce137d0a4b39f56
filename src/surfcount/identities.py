"""Functional-identity verification on truncated series.

Each map model's generating series (built from the recurrence tables)
supports a family of auxiliary series F[lam], indexed by a derivative
multi-index lam = [ell, 3^n3, 2^n2, 1^n1]: these are root-face-marking
derivatives of the underlying multi-variable generating function, after
all face variables are specialized.  A loop-equation recursion expresses
each F[lam] through strictly smaller indices, with the model's series as
the base case, so every F[lam] is computable on a truncated window with
no symbolic machinery.

From the F[lam] we assemble three quadratic combinations KP1, KP2, KP3
per model and evaluate the functional identities the enumeration theory
promises: a shifted identity (charge moved by +-2), one unshifted ODE
per model, two linear one-face ODEs, and a shift-free identity that also
involves derivative-expanded combinations.  Every check returns a
residual series; correctness means every retained coefficient is the
exact rational zero (tolerance is not a concept here).

The three models share one loop equation and one ODE shape; two tables
of per-model constants drive them.  `_LOOP` holds, per model, the offset
of the marked part, the linear factor, the boundary constants and the
largest leading part the recursion accepts (`_loop_terms`).  `_ODE`
holds the power of t, the square root of the weight, the derivative
coefficient, the KP2 term and the exact cofactor of the unshifted ODE
(`verify_ode`).
`_ONEFACE_ODE` holds the two linear one-face ODEs as operator data, the
coefficient of each t^a f^(k) and the inhomogeneous part.  Read at one
order t^m, such an ODE is a linear relation among the coefficients of
the series, with coefficients polynomial in m (`oneface_relation`): the
recurrence the paper's closing claim promises.  `verify_oneface_ode`
evaluates the residual through it, and `oneface_ode_fill` fills the
one-face tables from it, a second engine beside `ledoux` and
`bip_oneface`.

The bipartite series and every bipartite constant are symmetric in the
two vertex colours u and v, so the bipartite F[lam], KP combinations and
ODE are computed in the basis (s, z, p), s = u + v and p = uv
(`poly.to_sp`), on about half the terms; `verify_ode` maps the residual
back to (u, z, v).  A bipartite table whose series is not symmetric has
no such form, and its context carries the colour defect eta -
eta|u<->v instead: nonzero, so `verify_ode` returns it as the residual
and the identity fails at the first row that breaks the symmetry.

Each F[lam] step, each KP combination and each residual is one
`TSeries.dot` over (weight, series, series) triples; a lone series is
paired with a constant series (1, z or the linear factor).  Some sums
start at t^0 at the latest, which fixes the windows the reports print:
those that start from `TSeries.zero()` (`formal_eval`, the cofactor of
`verify_ode`, `_f_tri`) and `_fused`'s, whose dot holds a zero-weight
constant term.  Each coefficient of a one-face residual is one
`Poly.dot`, over the relation's shifts.  The shift-free identity merges
each sum of formal combinations into one before evaluating it, so a
monomial its terms share is multiplied out once.

Maps and bipartite F[lam] are computed only as far as a check reads
them, to a read cap fixed by rule before anything is computed.  A formal
combination whose lone factor with the fewest parts has m parts is read
to C = theta's top + offset m (`_read_cap`): its lone factors are read
to C, and every factor and partial product of a product monomial to C -
offset.  A loop-equation step read to c reads each of its terms to c -
offset (`_f_loop`, `_fused`), and `TSeries.dot` computes no order past
its `top`.  A memo entry serves every read up to the cap it was computed
to (`SeriesContext.caps`); a read beyond it, or a read of the whole
window (`ftheta`, and the F[1,1,1] of `verify_fixed_charge`), computes
it anew.  Three facts make the caps exact, so every residual, window
included, is the uncapped one:

1. F[lam]'s window ends at most at theta's top + offset len(lam),
   because of its (t d/dt - |rest|) F[rest] term; so a combination's
   window ends at most at C, its lone factor with m parts.
2. Every maps and bipartite F starts at t^offset; so a product of
   factors read to C - offset is still known to C.
3. `_f_loop` only shifts up in t, by t^offset; so a step read to c
   needs its terms only to c - offset.

Triangulations stay uncapped: `_f_tri` shifts by t^-2, and their windows
start below t^0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, lcm

from .bipartite import BipOneFaceTable, BipTable, bip_oneface_series, eta_series
from .errors import IntegralityError, WindowError
from .maps import MapsTable, OneFaceTable, oneface_series, theta_series
from .poly import ONE, P, S, U, V, Z, ZERO, Poly, from_sp, to_sp
from .triangulations import TriTable, xi_series
from .tseries import TSeries

_UZ = U * Z
_UV = U * V
_ONE = TSeries.const(1)
_Z = TSeries.const(Z)


def _canon(parts) -> tuple[int, ...]:
    return tuple(sorted((p for p in parts if p), reverse=True))


@dataclass
class SeriesContext:
    """One model's series plus the memo of computed F[lam].

    A bipartite series is in (s, z, p); one that is not colour-symmetric
    stays in (u, z, v), with its nonzero colour defect, and builds no
    F[lam].
    """

    model: str                     # "maps" | "bipartite" | "triangulations"
    theta: TSeries
    memo: dict = field(default_factory=dict)
    defect: TSeries | None = None
    caps: dict = field(default_factory=dict)   # parts: the read cap of memo[parts]


def maps_context(order: int, table: MapsTable | None = None) -> SeriesContext:
    table = table or MapsTable("cc").fill(order // 2)
    return SeriesContext("maps", theta_series(table, order))

def bipartite_context(order: int, table: BipTable | None = None) -> SeriesContext:
    table = table or BipTable().fill(order)
    eta = eta_series(table, order)
    defect = eta - eta.map(Poly.swap_uv)
    if not defect.is_zero():
        return SeriesContext("bipartite", eta, defect=defect)
    return SeriesContext("bipartite", eta.map(to_sp))

def triangulations_context(order: int, table: TriTable | None = None) -> SeriesContext:
    table = table or TriTable().fill(order // 6)
    return SeriesContext("triangulations", xi_series(table, order))


# ---------------------------------------------------------------------------
# the F[lam] recursions

_HALF = Fraction(1, 2)
_U_U1 = (U * (U + ONE)).scale(_HALF)

# model: (offset, linear factor, boundary constants keyed by (i, rest),
# largest leading part), see _loop_terms
_LOOP = {
    "maps": (2, 2 * U + ONE, {(-1, (1,)): U.scale(_HALF), (-1, ()): _UZ.scale(_HALF),
                              (0, ()): _U_U1}, 9),
    "bipartite": (1, S, {(0, ()): P.scale(_HALF)}, 9),   # in (s, z, p)
    "triangulations": (3, 2 * U + ONE, {(-1, (1,)): U.scale(_HALF)}, 10),
}


def ftheta(ctx: SeriesContext, lam) -> TSeries:
    """The truncated series F[lam], lam its parts in any order, by recursion
    on the size, on its whole window."""
    return _F(ctx, _canon(lam))


def _F(ctx: SeriesContext, parts: tuple[int, ...], cap: int | None = None) -> TSeries:
    """F[parts] read to t^cap, or on its whole window for cap None; the memo
    entry is computed anew for a read beyond the cap it was computed to."""
    if not parts:
        if ctx.defect is not None:
            raise ValueError("the bipartite series is not colour-symmetric")
        return ctx.theta
    hit = ctx.memo.get(parts)
    held = ctx.caps.get(parts)
    if hit is None or (held is not None and (cap is None or cap > held)):
        if ctx.model == "triangulations":
            hit = _f_tri(ctx, parts)
        else:
            hit = _f_loop(ctx, parts, cap)
        ctx.memo[parts] = hit
        ctx.caps[parts] = cap
    return hit


def _loop_terms(ctx: SeriesContext, parts: tuple[int, ...], cap: int | None):
    """The loop-equation terms all three models share, for F[ell, rest],
    each F read to t^cap.

    With i = ell - offset: the binomial split products F[a, ..] F[i-a, ..],
    the merges F[a, i-a, rest] and F[i+j, rest - j], the linear term
    (lin + i) i F[i, rest] and the boundary constant for (i, rest), each a
    (weight, series, series) triple for `TSeries.dot`.  Returns
    (i, rest, triples).
    """
    offset, lin, consts, ell_max = _LOOP[ctx.model]
    ell, rest = parts[0], parts[1:]
    if ell > ell_max:
        raise ValueError(f"leading part {ell} out of reachable range")
    if rest and rest[0] > 3:
        raise ValueError(f"two parts above 3 in {parts}")
    i = ell - offset
    n = {j: rest.count(j) for j in (1, 2, 3)}
    splits, merges = [], []
    # (a, l) and its mirror (i - a, n - l) give the same product and merge,
    # so each pair is computed once at double weight; the skipped mirrors
    # would only read memo entries, which keeps the memo's order
    for a in range(1, i // 2 + 1):
        b = i - a
        for l in product(range(n[3] + 1), range(n[2] + 1), range(n[1] + 1)):
            mirror = (n[3] - l[0], n[2] - l[1], n[1] - l[2])
            if a == b and l > mirror:
                continue
            l3, l2, l1 = l
            c = 2 * a * b * comb(n[3], l3) * comb(n[2], l2) * comb(n[1], l1)
            left = _F(ctx, _canon((a,) + (3,) * l3 + (2,) * l2 + (1,) * l1), cap)
            right = _F(ctx, _canon((b,) + (3,) * mirror[0] + (2,) * mirror[1]
                                   + (1,) * mirror[2]), cap)
            splits.append((c if (a, l) == (b, mirror) else 2 * c, left, right))
        merges.append((2 * a * b * (1 if a == b else 2), _F(ctx, _canon((a, b) + rest), cap),
                       _ONE))
    terms = splits + merges
    for j in (1, 2, 3):
        if n[j] and i + j > 0:
            sub = list(rest)
            sub.remove(j)
            terms.append((n[j] * (i + j), _F(ctx, _canon([i + j] + sub), cap), _ONE))
    if i >= 1:
        terms.append((i, _F(ctx, _canon((i,) + rest), cap), TSeries.const(lin + i * ONE)))
    if (i, rest) in consts:
        terms.append((1, _ONE, TSeries.const(consts[i, rest])))
    return i, rest, terms


def _f_loop(ctx, parts, cap):
    """Maps and bipartite: the shared terms, (t d/dt - |rest|) F[rest]
    and -a z F[a, rest], all times t^offset / ell; read to t^cap, each
    term is read to t^(cap - offset)."""
    offset = _LOOP[ctx.model][0]
    sub = None if cap is None else cap - offset
    i, rest, terms = _loop_terms(ctx, parts, sub)
    terms.append((1, _F(ctx, rest, sub).t_dt(sum(rest)), _ONE))
    for a in range(1, i + 1):
        terms.append((-a, _F(ctx, _canon((a,) + rest), sub), _Z))
    return _fused(terms, parts[0], offset, sub)


def _f_tri(ctx, parts):
    if 3 in parts:
        sub = list(parts)
        sub.remove(3)
        mu = _canon(sub)
        return _F(ctx, mu).t_dt(sum(mu)).div_z().scale(Fraction(1, 3))
    if all(p == 1 for p in parts):
        l = len(parts)
        acc = [_F(ctx, parts[1:]).dt().shift_t(5).scale(Z)]
        if l == 1:
            acc.append(TSeries.exact({4: _U_U1 * Z}))
        elif l == 2:
            acc.append(TSeries.exact({2: U.scale(_HALF)}))
        return sum(acc, TSeries.zero())
    i, rest, terms = _loop_terms(ctx, parts, None)
    top = _F(ctx, _canon((i + 2,) + rest)).scale(Fraction(i + 2, parts[0]))
    return (top - _fused(terms, parts[0], 2)).div_z().shift_t(-2)


def _fused(terms, ell: int, offset: int, top: int | None = None) -> TSeries:
    """t^offset / ell times the sum of the triples, as one `TSeries.dot`
    read to t^top.  Its zero-weight constant term starts the sum at t^0
    at the latest, so a cap below the other terms' start still leaves
    the sum its window from t^0."""
    w = Fraction(1, ell)
    triples = [(c * w, a, b) for c, a, b in terms] + [(0, _ONE, _ONE)]
    return TSeries.dot(triples, top).shift_t(offset)


# ---------------------------------------------------------------------------
# identity residuals


def verify_shifted_bkp1(ctx: SeriesContext) -> TSeries:
    """Shifted first identity for the maps model: the charge-moved second
    difference of the series, theta(u+2) + theta(u-2) - 2 theta = twice
    its `Poly.charge_shift`, times KP1 equals (d/dt - 4/t) KP1."""
    if ctx.model != "maps":
        raise ValueError("the shifted identity is implemented for the maps model")
    kp = ctx.memo.get("__kp__")
    kp1 = kp[0] if kp else formal_eval(ctx, KP1_FORMAL)
    nabla2 = ctx.theta.map(Poly.charge_shift).scale(2)
    return TSeries.dot([(1, nabla2.dt(), kp1), (-1, kp1.dt(), _ONE), (4, kp1.shift_t(-1), _ONE)])


# model: (s, r, c, KP2 term, exact cofactor), with the weight w = r^2 and
# the KP2 term a pair (a, b), kp2_term(KP2) = a b / 2; see verify_ode
_ODE = {
    "maps": (6, ONE, 2, lambda kp2: (kp2, _ONE),
             {4: _UZ - 4 * ONE, 2: 3 * U + ONE - Z}),
    "bipartite": (4, ONE, 4,   # in (s, z, p)
                  lambda kp2: (kp2, TSeries.exact({1: S + ONE - Z, 0: ONE})),
                  {2: 3 * P, 1: -S}),
    "triangulations": (10, Z, 5, lambda kp2: (kp2.div_z().shift_t(-2), _ONE),
                       {8: (4 * (U * U + U)) * Z * Z, 2: U}),
}


def verify_ode(model: str, ctx: SeriesContext) -> TSeries:
    """Unshifted ODE residual for the given model.

    With D(f) = w (f'' t^s + c f' t^(s-1)), w = r^2, and the model's row
    of _ODE: w KP1'^2 t^s - KP2^2 + KP1 (KP3 - kp2_term(KP2) - D(KP1)
    - KP1 (2 D(theta) + exact)).  The bracket is one `TSeries.dot` and the
    residual another, so no product is computed past the window of its
    sum; the squares are squares, (r KP1' t^(s/2))^2 and KP2^2.

    The bipartite residual is computed in (s, z, p) and returned in (u,
    z, v); a context with a colour defect returns the defect.
    """
    if ctx.model != model:
        raise ValueError(f"context is for {ctx.model!r}, not {model!r}")
    if model not in _ODE:
        raise ValueError(f"unknown model {model!r}")
    if ctx.defect is not None:
        return ctx.defect
    s, r, c, kp2_term, exact = _ODE[model]

    def root(f):   # r f
        return f if r == ONE else f.scale(r)

    def D(df):   # D(f), given f'
        return root(root(df.dt().shift_t(s) + df.shift_t(s - 1).scale(c)))

    kp1, kp2, kp3 = kp_combinations(ctx)
    d1 = kp1.dt()
    cof = TSeries.zero() + D(ctx.theta.dt()).scale(2) + TSeries.exact(exact)
    inner = TSeries.dot([(1, kp3, _ONE), (-_HALF, *kp2_term(kp2)), (-1, D(d1), _ONE),
                         (-1, kp1, cof)])
    d1h = root(d1.shift_t(s // 2))
    res = TSeries.dot([(1, d1h, d1h), (-1, kp2, kp2), (1, kp1, inner)])
    return res.map(from_sp) if model == "bipartite" else res


_DMV2 = (U - V) * (U - V)
_S3 = 3 * U * U + 3 * V * V + 2 * _UV

# model: ({k: {a: c}}, {a: c}), the linear one-face ODE
# sum_k sum_a c t^a f^(k) + sum_a c t^a = 0 on the model's one-face series
_ONEFACE_ODE = {
    "oneface": ({
        1: {0: 3 * ONE, 2: 10 * ONE - 20 * U, 4: (U * U - U - 5 * ONE).scale(32),
            6: (2 * U - ONE).scale(240), 8: 2880 * ONE},
        2: {1: ONE, 3: 4 * ONE - 8 * U, 5: (8 * U * U - 8 * U - 109 * ONE).scale(2),
            7: (2 * U - ONE).scale(360), 9: 7200 * ONE},
        3: {6: -66 * ONE, 8: (2 * U - ONE).scale(120), 10: 4800 * ONE},
        4: {7: -5 * ONE, 9: (2 * U - ONE).scale(10), 11: 1200 * ONE},
        5: {12: 120 * ONE},
        6: {13: 4 * ONE},
    }, {
        1: (U * U + U).scale(-2), 3: (4 * U * U * U - 4 * U * U - 11 * U).scale(2),
        5: (2 * U * U - U).scale(30), 7: 240 * U,
    }),
    "bip-oneface": ({
        1: {0: 2 * ONE, 1: (ONE - U - V).scale(7),
            2: _S3.scale(3) - (U + V).scale(12) - 29 * ONE,
            # the inner constant must be 9: the quoted form with 7 fails the
            # residual from t^3 on, while 9 makes it vanish identically
            # through every checked order on the slice-validated table
            3: (_UV * (U + V) - U * U * U - V * V * V + _DMV2
                + (U + V - ONE).scale(9)).scale(5),
            4: _DMV2 * _DMV2 - _DMV2.scale(18) + 81 * ONE},
        2: {1: ONE, 2: (ONE - U - V).scale(4), 3: _S3.scale(2) - (U + V).scale(8) - 86 * ONE,
            4: (U * U * U + V * V * V - _UV * (U + V) - _DMV2
                - (U + V - ONE).scale(37)).scale(-4),
            5: _DMV2 * _DMV2 - _DMV2.scale(64) + 719 * ONE},
        3: {4: -44 * ONE, 5: (U + V - ONE).scale(82), 6: _DMV2.scale(-38) + 1078 * ONE},
        4: {5: -5 * ONE, 6: (U + V - ONE).scale(10), 7: _DMV2.scale(-5) + 493 * ONE},
        5: {8: 80 * ONE},
        6: {9: 4 * ONE},
    }, {
        0: -_UV, 1: _UV * (2 * U + 2 * V - 5 * ONE), 2: -(_UV * (_DMV2 - ONE)),
    }),
}


def oneface_relation(model: str):
    """The model's one-face ODE as a recurrence: a function of m giving the
    t^m coefficient of the ODE as ({j: P_j}, inhom): sum_j P_j f_j +
    inhom, where f_j is the t^j coefficient of the series.

    The t^m coefficient of c t^a f^(k) is c (j)_k f_j, with j = m - a + k
    and (j)_k the falling factorial, so P_j sums c (j)_k over the terms of
    one shift k - a = j - m: a recurrence with coefficients polynomial in m.
    The terms are grouped by shift and monomial once, here, so each P_j is
    built as one polynomial.
    """
    rows, inhom = _ONEFACE_ODE[model]
    by_shift: dict[int, list] = {}
    for k, row in rows.items():
        for a, c in row.items():
            by_shift.setdefault(k - a, []).append((k, c))
    # shift -> (the largest k, denominator, {monomial: [(k, numerator)]})
    groups = {}
    for shift, terms in by_shift.items():
        den = lcm(*(c.den for _, c in terms))
        monos: dict[int, list] = {}
        for k, c in terms:
            for key, num in c.terms.items():
                monos.setdefault(key, []).append((k, num * (den // c.den)))
        groups[shift] = max(k for k, _ in terms), den, monos

    def relation(m: int):
        out = {}
        for shift, (k_max, den, monos) in groups.items():
            j = m + shift
            falling = [1]   # falling[k] = (j)_k
            for i in range(k_max):
                falling.append(falling[-1] * (j - i))
            out[j] = Poly({key: sum(num * falling[k] for k, num in terms)
                           for key, terms in monos.items()}, den)
        return out, inhom.get(m, ZERO)

    return relation


def _oneface_lag(model: str) -> int:
    """min(a - k) over the ODE's terms: f_j first enters at t^(j + lag)."""
    return min(a - k for k, row in _ONEFACE_ODE[model][0].items() for a in row)


def verify_oneface_ode(model: str, series: TSeries) -> TSeries:
    """Linear ODE residual of a truncated one-face series, from the model's
    row of _ONEFACE_ODE: "oneface" in (t, u), "bip-oneface" in (t, u, v).

    Each coefficient is one `Poly.dot` over the relation at its order.  The
    window is the one the product rule gives the sum of the terms c t^a
    f^(k) plus the inhomogeneous part: it tops out at series.max_order +
    lag and starts at t^0 or lower.
    """
    lag = _oneface_lag(model)
    lo = min(0, series.min_order + lag, min(_ONEFACE_ODE[model][1]))
    hi = series.max_order + lag
    relation = oneface_relation(model)
    coeffs = []
    for m in range(lo, hi + 1):
        terms, inhom = relation(m)
        coeffs.append(Poly.dot([(1, p, series.coeff(j)) for j, p in terms.items()]) + inhom)
    return TSeries(lo, coeffs, hi)


# model: (table, series, t-orders per row, cell of the monomial u^e0 z^e1 v^e2
# of row n)
_ONEFACE_TABLES = {
    "oneface": (OneFaceTable, oneface_series, 2, lambda n, e: (n, n + 1 - e[0])),
    "bip-oneface": (BipOneFaceTable, bip_oneface_series, 1, lambda n, e: (n, e[0], e[2])),
}


def _oneface_step(model: str, relation, top: int):
    """The relation that first reaches f_top, as (lead, {j: P_j} with j <
    top, inhom); lead, the coefficient of f_top, is a nonzero constant."""
    terms, inhom = relation(top + _oneface_lag(model))
    lead = terms.pop(top)
    if lead.is_zero() or not lead.is_homogeneous(0):
        raise IntegralityError(f"{model} t^{top}: leading coefficient {lead} "
                               "is not a nonzero constant")
    return lead.evaluate(), terms, inhom


def oneface_ode_fill(model: str, n_max: int):
    """The model's one-face table to row n_max, filled from its ODE.

    The series coefficient of the table's row n is f_j = C_j / (2j), at j
    = 2n for maps and j = n for bipartite maps, with C_j the row as a
    polynomial.  From the seeded rows 1..3, each row solves the relation
    that first reaches it: C_top = -(sum_j (top / j) P_j C_j + 2 top
    inhom) / lead, an exact division, so a row that is not integral, or a
    cell that is negative (`Table._cell`), raises IntegralityError.
    """
    table, series, step, cell = _ONEFACE_TABLES[model]
    tab = table()
    seeds = series(tab, 3 * step)
    rows = {step * n: seeds.coeff(step * n).scale(2 * step * n) for n in range(1, 4)}
    relation = oneface_relation(model)
    for n in range(4, n_max + 1):
        top = step * n
        lead, terms, inhom = _oneface_step(model, relation, top)
        num = Poly.dot([(Fraction(top, j), p, rows[j]) for j, p in terms.items() if j >= 1]
                       + [(2 * top, ONE, inhom)])
        rows[top] = num.scale(-1 / lead)
        if not rows[top].is_integral():
            raise IntegralityError(f"{model}[{n}]: {num} is not divisible by {lead}")
        for exps, c in rows[top].int_items():
            key = cell(n, exps)
            tab.entries[key] = tab._cell(key, c, 1)
    return tab


# ---------------------------------------------------------------------------
# KP combinations as formal products of F[mu], and the shift-free identity

_Mono = tuple[tuple[int, ...], ...]
_FPoly = dict[_Mono, Fraction]


def _fp(*items) -> _FPoly:
    out: _FPoly = {}
    for coef, *mus in items:
        key = tuple(sorted(tuple(sorted(m, reverse=True)) for m in mus))
        out[key] = out.get(key, Fraction(0)) + Fraction(coef)
    return {k: v for k, v in out.items() if v}


KP1_FORMAL = _fp(
    (-1, (3, 1)), (1, (2, 2)),
    (Fraction(1, 2), (1, 1), (1, 1)), (Fraction(1, 12), (1, 1, 1, 1)),
)
KP2_FORMAL = _fp(
    (-2, (4, 1)), (2, (3, 2)),
    (2, (2, 1), (1, 1)), (Fraction(1, 3), (2, 1, 1, 1)),
)
KP3_FORMAL = _fp(
    (-6, (5, 1)), (4, (4, 2)), (2, (3, 3)),
    (4, (3, 1), (1, 1)), (Fraction(2, 3), (3, 1, 1, 1)),
    (4, (2, 1), (2, 1)), (2, (2, 2), (1, 1)), (1, (2, 2, 1, 1)),
    (Fraction(1, 3), (1, 1), (1, 1), (1, 1)),
    (Fraction(1, 6), (1, 1, 1, 1), (1, 1)),
    (Fraction(1, 180), (1, 1, 1, 1, 1, 1)),
)


def formal_dp(fp: _FPoly, k: int) -> _FPoly:
    """Derivative with respect to the k-th face variable, by product rule."""
    out: _FPoly = {}
    for mono, coef in fp.items():
        for pos in range(len(mono)):
            new = list(mono)
            new[pos] = tuple(sorted(mono[pos] + (k,), reverse=True))
            key = tuple(sorted(new))
            out[key] = out.get(key, Fraction(0)) + coef
    return {k_: v for k_, v in out.items() if v}


def formal_eval(ctx: SeriesContext, fp: _FPoly) -> TSeries:
    """Specialize a formal combination: products of F[mu] series.

    The underlying tau function carries doubled time variables, so each
    factor F[mu] picks up 2^(number of parts of mu) when expressed through
    the face-specialized series.  A lone factor is read to the
    combination's read cap, and the factors and partial products of a
    product monomial one offset lower (`_read_cap`).
    """
    cap = _read_cap(ctx, fp)
    sub = None if cap is None else cap - _LOOP[ctx.model][0]
    triples = []
    for mono, coef in fp.items():
        c = cap if len(mono) == 1 else sub
        *head, last = [_F(ctx, mu, c) for mu in mono]
        left = head[0] if head else _ONE
        for f in head[1:]:
            left = TSeries.dot([(1, left, f)], c)
        triples.append((coef * (1 << sum(map(len, mono))), left, last))
    return TSeries.zero() + TSeries.dot(triples)


def _read_cap(ctx: SeriesContext, fp: _FPoly) -> int | None:
    """The highest order any term of the combination can reach: theta's
    top plus offset times the fewest parts of a lone factor (None for
    triangulations, or with no lone factor)."""
    lone = [len(mono[0]) for mono in fp if len(mono) == 1]
    if ctx.model == "triangulations" or not lone:
        return None
    return ctx.theta.max_order + _LOOP[ctx.model][0] * min(lone)


def kp_combinations(ctx: SeriesContext) -> tuple[TSeries, TSeries, TSeries]:
    """KP1, KP2/2 and KP3/4 of the formal combinations, memoized per context."""
    key = "__kp__"
    if key not in ctx.memo:
        ctx.memo[key] = (formal_eval(ctx, KP1_FORMAL),
                         formal_eval(ctx, KP2_FORMAL).scale(Fraction(1, 2)),
                         formal_eval(ctx, KP3_FORMAL).scale(Fraction(1, 4)))
    return ctx.memo[key]


def _formal_sum(*items) -> _FPoly:
    """Sum of c * fp over (c, fp) pairs, like monomials merged, zeros dropped."""
    out: _FPoly = {}
    for c, fp in items:
        for mono, coef in fp.items():
            out[mono] = out.get(mono, 0) + c * coef
    return {k: v for k, v in out.items() if v}


def verify_fixed_charge(ctx: SeriesContext) -> TSeries:
    """Shift-free identity on the plain (unrescaled) combinations.

    With k1 = KP1, k2 = KP2, k1' = d1 KP1 (dj the derivative by the j-th
    face variable) and F = F[1,1,1] (doubled-time weight 2^3 in the 16),
    the residual in nested form is k1 (k1 (16 F k1 + X) + A k1' - 2 B k2)
    - k1' (2 k2^2 - 2 k1'^2), with X = -d1 KP3 + 2 d2 KP2 + d1^3 KP1,
    A = KP3 - 3 d1^2 KP1 and B = d2 KP1 - d1 KP2, each merged into one
    formal combination (`_formal_sum`) before it is evaluated.
    """
    if ctx.model != "maps":
        raise ValueError("the shift-free identity check runs on the maps model")
    kp1_1 = formal_dp(KP1_FORMAL, 1)
    kp1_11 = formal_dp(kp1_1, 1)
    k1, k2, k1_1, x, a, b = (formal_eval(ctx, fp) for fp in (
        KP1_FORMAL, KP2_FORMAL, kp1_1,
        _formal_sum((-1, formal_dp(KP3_FORMAL, 1)), (2, formal_dp(KP2_FORMAL, 2)),
                    (1, formal_dp(kp1_11, 1))),
        _formal_sum((1, KP3_FORMAL), (-3, kp1_11)),
        _formal_sum((1, formal_dp(KP1_FORMAL, 2)), (-1, formal_dp(KP2_FORMAL, 1))),
    ))
    inner = TSeries.dot([(16, _F(ctx, (1, 1, 1)), k1), (1, x, _ONE)])
    outer = TSeries.dot([(1, k1, inner), (1, a, k1_1), (-2, b, k2)])
    tail = TSeries.dot([(2, k2, k2), (-2, k1_1, k1_1)])
    return TSeries.dot([(1, k1, outer), (-1, k1_1, tail)])


# ---------------------------------------------------------------------------
# named checks with machine-readable reports


@dataclass
class VerifyReport:
    identity: str
    model: str
    requested_order: int
    window: tuple[int, int]
    status: str                        # "pass" | "fail"
    first_failure: dict | None = None  # {"order": ..., "coefficient": ...}

    def as_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def _residual_shifted(order, tables):
    ctx = maps_context(order, tables.get("maps"))
    return verify_shifted_bkp1(ctx)

def _residual_ode_maps(order, tables):
    return verify_ode("maps", maps_context(order, tables.get("maps")))

def _residual_ode_bip(order, tables):
    return verify_ode("bipartite", bipartite_context(order, tables.get("bipartite")))

def _residual_ode_tri(order, tables):
    return verify_ode("triangulations", triangulations_context(order, tables.get("triangulations")))

def _residual_fixed(order, tables):
    return verify_fixed_charge(maps_context(order, tables.get("maps")))

def _residual_oneface(model):
    table, series, step, _ = _ONEFACE_TABLES[model]

    def build(order, tables):
        tab = tables.get(model) or table().fill((order + 2) // step)
        return verify_oneface_ode(model, series(tab, order + 2))
    return build


IDENTITIES = {
    # name: (model, default order, residual builder)
    "shifted-bkp1": ("maps", 20, _residual_shifted),
    "ode-maps": ("maps", 16, _residual_ode_maps),
    "ode-bipartite": ("bipartite", 12, _residual_ode_bip),
    "ode-triangulations": ("triangulations", 18, _residual_ode_tri),
    "ode-oneface-maps": ("oneface", 14, _residual_oneface("oneface")),
    "ode-oneface-bipartite": ("bip-oneface", 10, _residual_oneface("bip-oneface")),
    "fixed-charge": ("maps", 12, _residual_fixed),
}


def run_identity(name: str, order: int | None = None, tables: dict | None = None) -> VerifyReport:
    """Evaluate one named identity's residual and wrap it in a report.

    Pass criteria: the residual's validity window reaches the requested
    order and every retained coefficient is the exact rational zero.
    """
    if name not in IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; know {sorted(IDENTITIES)}")
    model, default_order, builder = IDENTITIES[name]
    order = default_order if order is None else order
    if order < 1:
        raise WindowError(f"order {order} leaves no window to check")
    residual = builder(order, tables or {})
    residual.require_order(order)
    failure = residual.first_nonzero()
    return VerifyReport(
        identity=name,
        model=model,
        requested_order=order,
        window=(residual.min_order, residual.max_order),
        status="pass" if failure is None else "fail",
        first_failure=None if failure is None else
            {"order": failure[0], "coefficient": str(failure[1])},
    )
