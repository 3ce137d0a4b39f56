import hashlib
import json
from fractions import Fraction

import pytest

from surfcount import identities
from surfcount.bipartite import BipOneFaceTable, BipTable, bip_oneface_series
from surfcount.errors import WindowError
from surfcount.identities import (
    IDENTITIES,
    KP1_FORMAL,
    KP2_FORMAL,
    KP3_FORMAL,
    bipartite_context,
    formal_dp,
    formal_eval,
    ftheta,
    kp_combinations,
    maps_context,
    run_identity,
    triangulations_context,
    verify_fixed_charge,
    verify_ode,
    verify_oneface_ode,
    verify_shifted_bkp1,
)
from surfcount.maps import MapsTable, OneFaceTable, oneface_series
from surfcount.oracle import marked_face_coefficient
from surfcount.poly import ONE, Poly, U, V, Z, from_sp
from surfcount.triangulations import TriTable
from surfcount.tseries import TSeries


@pytest.fixture(scope="module")
def ctx10(maps_cc_12):
    return maps_context(10, maps_cc_12)


def test_lambda_index_roundtrip(ctx10):
    # an index is its parts in any order, zero parts dropped
    assert ftheta(ctx10, (1, 4, 0, 3, 1)) is ftheta(ctx10, (4, 3, 1, 1))
    assert ftheta(ctx10, (0,)) is ctx10.theta
    with pytest.raises(ValueError):
        ftheta(ctx10, (5, 4))


def test_base_case_is_series(ctx10):
    assert ftheta(ctx10, ()) is ctx10.theta


def test_single_mark_formula(ctx10):
    # marking one degree-1 face: t^2 (t d/dt Theta + uz/2)
    got = ftheta(ctx10, (1,))
    expected = (ctx10.theta.t_dt() + TSeries.const((U * Z).scale(Fraction(1, 2)))).shift_t(2)
    for k in range(0, got.max_order + 1):
        assert got.coeff(k) == expected.coeff(k)


def test_two_marks_low_order(ctx10):
    # the planar loop has two ordered degree-1 face markings: u/2 at t^2
    assert ftheta(ctx10, (1, 1)).coeff(2) == U.scale(Fraction(1, 2))


def test_ftheta_against_flag_oracle(ctx10, oracle3):
    prof = oracle3["profiles"]
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (5, 1)]:
        got = {(i, j): c for (i, j, _), c in ftheta(ctx10, lam).coeff(6).items()}
        want = marked_face_coefficient(prof, 3, lam)
        assert got == want, lam


def test_kp1_lowest_order(ctx10):
    kp1, kp2, kp3 = kp_combinations(ctx10)
    assert kp1.coeff(4) == U * U - U
    # the maps series has only even orders, so do the combinations
    for s in (kp1, kp2, kp3):
        assert all(s.coeff(k).is_zero() for k in range(s.min_order, s.max_order + 1) if k % 2)


def test_kp1_bipartite_lowest_order(bip_16):
    ctx = bipartite_context(8, bip_16)
    kp1, _, _ = kp_combinations(ctx)
    # the bipartite combinations are computed in (s, z, p)
    assert from_sp(kp1.coeff(4)) == U * V * (U - ONE) * (V - ONE)
    assert from_sp(kp1.coeff(5)) == (U * V * (U - ONE) * (V - ONE) * Z).scale(4)


def test_shifted_residual_zero(ctx10):
    res = verify_shifted_bkp1(ctx10)
    assert res.is_zero()
    assert res.max_order >= 12


def test_shifted_identity_builds_only_kp1(maps_cc_12, monkeypatch):
    ctx = maps_context(10, maps_cc_12)
    res = verify_shifted_bkp1(ctx)
    # KP2 and KP3 need these; KP1 does not
    for parts in [(5, 1), (4, 2), (4, 1), (3, 3), (1,) * 6]:
        assert parts not in ctx.memo, parts
    assert "__kp__" not in ctx.memo
    kp_combinations(ctx)
    # with the combinations memoized, KP1 is read back, not rebuilt
    monkeypatch.setattr(identities, "formal_eval", None)
    assert verify_shifted_bkp1(ctx) == res


def test_memoization_transparent(maps_cc_12):
    ctx = maps_context(8, maps_cc_12)
    first = ftheta(ctx, (3, 1))
    ctx.memo.clear()
    again = ftheta(ctx, (3, 1))
    assert first == again


def _corrupted(table, n, g2, delta):
    """A copy of a polynomial table with delta, {exponents: c}, added to cell (n, g2)."""
    broken = MapsTable(table.engine) if isinstance(table, MapsTable) else BipTable()
    broken.entries.update(table.entries)
    broken.entries[n, g2] = broken.entries[n, g2] + Poly.from_terms(delta)
    return broken


def test_window_shrink_consistency(maps_cc_12):
    # shrinking the build order never flips a verdict on the shared window
    prev_max = None
    for order in (6, 8, 10, 12):
        res = verify_shifted_bkp1(maps_context(order, maps_cc_12))
        assert res.is_zero()
        if prev_max is not None:
            assert res.max_order >= prev_max
        prev_max = res.max_order
    # and a corrupted table fails at every order wide enough to see it
    broken = _corrupted(maps_cc_12, 3, 0, {(4, 1, 0): 1})
    locations = set()
    for order in (10, 12, 14):
        res = verify_shifted_bkp1(maps_context(order, broken))
        assert not res.is_zero()
        locations.add(res.first_nonzero()[0])
    assert len(locations) == 1  # same first failure regardless of window


def test_mutation_detected_in_shifted_identity(maps_cc_12):
    # +1 on one coefficient of the 3-edge planar polynomial
    broken = _corrupted(maps_cc_12, 3, 0, {(2, 3, 0): 1})
    ctx = maps_context(10, broken)
    res = verify_shifted_bkp1(ctx)
    assert not res.is_zero()
    order, coeff = res.first_nonzero()
    assert order <= 10


def test_mutation_detected_in_oneface_ode():
    table = OneFaceTable().fill(8)
    table.entries[(3, 2)] += 1   # corrupt one stored value
    res = verify_oneface_ode("oneface", oneface_series(table, 16))
    assert not res.is_zero()


def test_fixed_charge_uses_same_evaluator(ctx10):
    # the F[1,1,1] factor in the shift-free identity is the ftheta series
    # itself (up to the doubled-time weight), consistent by construction
    direct = formal_eval(ctx10, {((1, 1, 1),): Fraction(1)})
    assert direct == ftheta(ctx10, (1, 1, 1)).scale(8)


def test_mutation_detected_in_fixed_charge(maps_cc_12):
    broken = _corrupted(maps_cc_12, 2, 1, {(1, 1, 0): 1})
    res = verify_fixed_charge(maps_context(8, broken))
    assert not res.is_zero()


def fixed_charge_reference(ctx):
    # the shift-free identity as written out term by term, one formal
    # combination per derivative and one series product per factor
    ev = lambda fp: formal_eval(ctx, fp)
    k1, h2, q3 = kp_combinations(ctx)   # KP1, KP2/2, KP3/4
    k3_1 = ev(formal_dp(KP3_FORMAL, 1))
    k2_2 = ev(formal_dp(KP2_FORMAL, 2))
    k2_1 = ev(formal_dp(KP2_FORMAL, 1))
    kp1_1f = formal_dp(KP1_FORMAL, 1)
    k1_1 = ev(kp1_1f)
    k1_2 = ev(formal_dp(KP1_FORMAL, 2))
    kp1_11f = formal_dp(kp1_1f, 1)
    k1_11 = ev(kp1_11f)
    k1_111 = ev(formal_dp(kp1_11f, 1))
    f111 = ftheta(ctx, (1, 1, 1)).scale(8)  # same doubled-time weight 2^3
    lhs = (f111 * k1 * k1 * k1).scale(2)
    rhs = TSeries.zero()
    for term in [
        (k3_1 - k2_2.scale(2)) * k1 * k1,
        -((q3.scale(4) - k1_11.scale(3)) * k1 * k1_1),
        ((k1_2 - k2_1) * k1 * h2).scale(4),
        (h2 * h2 * k1_1).scale(8),
        (k1_1 * k1_1 * k1_1).scale(-2),
        -(k1 * k1 * k1_111),
    ]:
        rhs = rhs + term
    return lhs - rhs


@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
def test_fixed_charge_matches_reference(maps_cc_12, corrupt):
    # the merged, nested residual is the term-by-term one, window included:
    # merging can only raise a valuation, so a moved window would show here
    table = _corrupted(maps_cc_12, 5, 2, {(1, 1, 0): 1} if corrupt else {})
    for order in range(1, 15):
        want = fixed_charge_reference(maps_context(order, table))
        got = verify_fixed_charge(maps_context(order, table))
        assert got == want, order
        assert got.window == want.window, order
    assert corrupt != got.is_zero()


@pytest.mark.parametrize("n, g2, delta, digest", [
    (4, 1, {(2, 1, 2): 1}, "1c02ab3e5a3445f4d91323741170c866bd3d125507e7ca377fadee9caf63725f"),
    (5, 0, {(3, 2, 2): 1, (2, 2, 3): 1},
     "2b6be38d481c494f0aa50fd825b2a1ae6ea152203d2534f912cdc5df236a62af"),
    (6, 2, {(2, 2, 2): 1}, "2ee37ec1e4d5fedfc8f4f257c050ce4a4baaa519c818a970f6eb4c58a568a722"),
], ids=["K-4-1", "K-5-0", "K-6-2"])
def test_bipartite_ode_fail_path_is_pinned(bip_16, n, g2, delta, digest):
    # a colour-symmetric +1 corruption: the residual, window included, is
    # the one the ODE gave when computed in (u, z, v)
    broken = _corrupted(bip_16, n, g2, delta)
    res = verify_ode("bipartite", bipartite_context(n + 6, broken))
    assert hashlib.sha256(repr(res).encode()).hexdigest() == digest


def test_asymmetric_bipartite_table_fails_at_its_row(bip_16):
    # +1 on u^3 z v and -1 on u z v^3 break the colour symmetry at t^4: the
    # residual is the colour defect, and no F[lam] is built
    broken = _corrupted(bip_16, 4, 1, {(3, 1, 1): 1, (1, 1, 3): -1})
    rep = run_identity("ode-bipartite", 10, {"bipartite": broken})
    assert rep.status == "fail" and rep.first_failure["order"] == 4
    with pytest.raises(ValueError):
        ftheta(bipartite_context(10, broken), (1,))


def test_run_identity_reports():
    rep = run_identity("ode-oneface-maps", 8)
    assert rep.status == "pass"
    assert rep.window[1] >= 8
    d = rep.as_dict()
    assert d["identity"] == "ode-oneface-maps" and d["first_failure"] is None
    with pytest.raises(KeyError):
        run_identity("no-such-identity")
    with pytest.raises(WindowError):
        run_identity("ode-oneface-maps", 0)


def test_every_boundary_constant_is_reached(monkeypatch):
    # the loop equation meets each (i, rest) of a model's boundary
    # constants when the identities run at their default orders; a key
    # it never meets is a constant no residual can see
    met = {model: set() for model in identities._LOOP}
    loop_terms = identities._loop_terms

    def spy(ctx, parts, cap):
        i, rest, terms = loop_terms(ctx, parts, cap)
        met[ctx.model].add((i, rest))
        return i, rest, terms
    monkeypatch.setattr(identities, "_loop_terms", spy)
    for name in identities.IDENTITIES:
        assert run_identity(name).status == "pass", name
    for model, (_, _, constants, _) in identities._LOOP.items():
        assert constants.keys() <= met[model], model


def test_oneface_pair_entry_point():
    res_maps = verify_oneface_ode("oneface", oneface_series(OneFaceTable().fill(6), 12))
    res_bip = verify_oneface_ode("bip-oneface", bip_oneface_series(BipOneFaceTable().fill(10), 10))
    assert res_maps.is_zero() and res_bip.is_zero()
    assert res_maps.max_order >= 10 and res_bip.max_order >= 8


def test_all_identities_pass_small_orders(maps_cc_12, bip_16, tri_15):
    tables = {"maps": maps_cc_12, "bipartite": bip_16, "triangulations": tri_15}
    small = {"shifted-bkp1": 10, "ode-maps": 10, "ode-bipartite": 8,
             "ode-triangulations": 12, "ode-oneface-maps": 8,
             "ode-oneface-bipartite": 6, "fixed-charge": 8}
    for name, order in small.items():
        rep = run_identity(name, order, tables)
        assert rep.status == "pass", name


@pytest.mark.slow
@pytest.mark.parametrize("name, order", [
    ("shifted-bkp1", 30), ("ode-maps", 40), ("ode-bipartite", 16),
    ("ode-triangulations", 150), ("fixed-charge", 20),
])
def test_raised_order_residuals(name, order):
    # each residual constrains every genus of its table up to the order
    rep = run_identity(name, order)
    assert rep.status == "pass", rep.first_failure
    assert rep.window[1] >= order


@pytest.fixture(scope="module")
def top_rows():
    # the tables that ode-maps at order 40 and ode-triangulations at 150 read;
    # fixed-charge at order 20 reads the maps rows to 10
    return {"maps": MapsTable("cc").fill(20), "triangulations": TriTable().fill(25)}


# identity, order, mutated cell, order of the first nonzero residual coefficient
TOP_ROW_MUTATIONS = [
    ("ode-maps", 40, (20, 2), 48), ("ode-maps", 40, (20, 10), 48),
    ("ode-maps", 40, (20, 12), 48), ("ode-triangulations", 150, (25, 3), 154),
    ("ode-triangulations", 150, (25, 11), 154), ("ode-triangulations", 150, (25, 18), 154),
    ("fixed-charge", 20, (10, 2), 34), ("fixed-charge", 20, (10, 5), 34),
    ("fixed-charge", 20, (10, 10), 34),
]


@pytest.mark.slow
@pytest.mark.parametrize("name, order, cell, at", TOP_ROW_MUTATIONS,
                         ids=[f"{name}-{n},{g2}" for name, _, (n, g2), _ in TOP_ROW_MUTATIONS])
def test_raised_order_residuals_see_the_top_row(top_rows, name, order, cell, at):
    # +1 on one coefficient of a cell in the top row the raised order reads
    model = identities.IDENTITIES[name][0]
    table = top_rows[model]
    broken = type(table)()
    broken.entries.update(table.entries)
    old = broken.entries[cell]
    if isinstance(old, Poly):
        broken.entries[cell] = old + Poly.from_terms({min(e for e, _ in old.int_items()): 1})
    else:
        broken.entries[cell] = old + 1
    rep = run_identity(name, order, {model: broken})
    assert rep.status == "fail" and rep.first_failure["order"] == at, rep.first_failure


def memo_digest(ctx):
    # the bipartite memo is in (s, z, p): hashed mapped back to (u, z, v)
    back = from_sp if ctx.model == "bipartite" else (lambda p: p)
    h = hashlib.sha256()
    for key, value in ctx.memo.items():
        for s in (value if key == "__kp__" else (value,)):
            h.update(repr((key, s.min_order, s.max_order,
                           [str(back(p)) for p in s.coeffs])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("make, order, digest", [
    pytest.param(maps_context, 10,
                 "f811e021d577afa080bc522a71fde439c1b4f18ad12ebc14ee502d5121827f09", id="maps"),
    pytest.param(bipartite_context, 8,
                 "e66a1b5d06a02da0836f2cb6b4adc3538ff2f7869e56b722f647996e6dfe2b6c", id="bipartite"),
    pytest.param(triangulations_context, 12,
                 "999c0dd27f2ffb767f0398845059e4c0c306b4a8e7246457721db5b1b7abbadf",
                 id="triangulations"),
    # the verify-deep orders of the benchmark
    pytest.param(maps_context, 24,
                 "adfca9f8d388706f79c4a82d2e0ee41fd668ded9c4cb0d8233b7e1861a9b2f24",
                 id="maps-24", marks=pytest.mark.slow),
    pytest.param(bipartite_context, 12,
                 "899f1169d4802279ee0dcedf852746b90916b496de0a34b9839e8f7ac5e25222",
                 id="bipartite-12", marks=pytest.mark.slow),
    pytest.param(triangulations_context, 42,
                 "fc387615a8bb268e0a3355d62273a1eac1e83154d7321be1a5456e64b98b2b33",
                 id="triangulations-42", marks=pytest.mark.slow),
])
def test_memo_is_pinned(make, order, digest):
    # every memoized F[lam] and the KP combinations, windows and memo order
    # included; a maps or bipartite F[lam] as far as its read cap
    ctx = make(order)
    kp_combinations(ctx)
    assert memo_digest(ctx) == digest


@pytest.mark.parametrize("make, order", [(maps_context, n) for n in (*range(1, 13), 24)]
                         + [(bipartite_context, n) for n in range(1, 13)],
                         ids=[f"maps-{n}" for n in (*range(1, 13), 24)]
                         + [f"bipartite-{n}" for n in range(1, 13)])
def test_memo_is_read_to_its_cap(make, order):
    # each memoized F[lam] is the whole F[lam] of a fresh context, cut at
    # the cap it was read to; at orders 1-4 some caps fall below an F's
    # valuation, and no window may end up empty
    ctx, fresh = make(order), make(order)
    kp_combinations(ctx)
    offset = identities._LOOP[ctx.model][0]
    assert ctx.caps.keys() == ctx.memo.keys() - {"__kp__"}
    for parts, cap in ctx.caps.items():
        got, whole = ctx.memo[parts], ftheta(fresh, parts)
        assert whole.max_order <= ctx.theta.max_order + offset * len(parts)
        assert got.min_order == whole.min_order == offset
        assert got.max_order == (whole.max_order if cap is None else min(whole.max_order, cap))
        assert got.coeffs == whole.coeffs[:len(got.coeffs)]
    assert kp_combinations(ctx) == kp_combinations(fresh)



_SLOW = pytest.mark.slow


@pytest.mark.parametrize("name, order, digest", [
    pytest.param("shifted-bkp1", 26,
                 "56a0eed7b770dcd66c1be45869706323d30d22da0948eb7787c310ea366e3ccb", marks=_SLOW),
    pytest.param("ode-maps", 24,
                 "a6033e207793c53b00565c76b960a3a2a0cba95fcdedf5dcb7f3d71ce3c4e01d", marks=_SLOW),
    pytest.param("ode-bipartite", 12,
                 "6b237b24413dc985aa9469305c11b9a548a707e5ff818d35107a59109a454087", marks=_SLOW),
    pytest.param("ode-triangulations", 42,
                 "c068ab1f4f8ed2cc77744edcf94a7e187ad2739d4f5a5b53af84759927513119", marks=_SLOW),
    pytest.param("ode-triangulations", 48,
                 "5d03a4b90623e2b055869201b9819a8ae48165b48d979aac11e7db96b50a07df", marks=_SLOW),
    pytest.param("ode-oneface-maps", 26,
                 "a2aa870220e928d46dea8da786957f9b77f4251bf0a5101233f8499f81d33029", marks=_SLOW),
    pytest.param("ode-oneface-maps", 30,
                 "7fa265a248aaff41857661282ab54f03c5573fcd94c2c80d8e4dd4366a2d9af0", marks=_SLOW),
    pytest.param("ode-oneface-bipartite", 24,
                 "36b680368cd158fa10b070d96fe97e7b8b1c45a947bdf477772cd97705ec8c97", marks=_SLOW),
    # cheap enough for tier-1
    ("fixed-charge", 18, "7f0f8bbacdb4f3d9e65588d4bb367de6f0cfd01fa154804916fc42c5448326ab"),
])
def test_verify_deep_reports_are_pinned(name, order, digest):
    # the identity reports at the benchmark's verify-deep orders
    report = json.dumps(run_identity(name, order).as_dict(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_report_windows_are_pinned():
    # the window every report prints, its t^0 start from the `TSeries.zero()`
    # folds included: each identity at orders 1..12 and at its default order
    h = hashlib.sha256()
    for name, (_, default, _) in IDENTITIES.items():
        for order in [*range(1, 13), default]:
            h.update(json.dumps(run_identity(name, order).as_dict(), sort_keys=True).encode())
    assert h.hexdigest() == "99427b986b5e52ebf6ce3fd0b5009ab893d08d5d69c2d631ace156d703813549"
