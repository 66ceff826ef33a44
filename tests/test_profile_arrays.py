"""Array evaluation of every profile node against its scalar form.

Each node (Gaussian, Points, Scaled, Renyi, Pld) evaluated over an array
of eps must give exactly the floats its scalar evaluator gives one eps at
a time, and refuse a NaN the same way.  `optimize_eps1` must choose the
same eps1 as a scan that calls the base and the penalty once per
candidate, and build the same candidate grid as `np.geomspace`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel.errors import UnreachableTargetError
from privsel.pld import (
    DiscretePLD,
    GridSpec,
    Pld,
    SubsampledGaussianParams,
    subsampled_gaussian_profile,
)
from privsel.profiles import (
    PointDP,
    Scaled,
    clip_delta_array,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
    rdp_to_dp,
)
from privsel.rnm import rnm_composition_profile, rnm_profile
from privsel.selection import (
    EPS1_CAP,
    GRID_LO,
    GRID_POINTS,
    REFINE_TOL,
    BinomialPenalty,
    NegBinPenalty,
    PoissonPenalty,
    _grid,
    negbin_penalty,
    optimize_eps1,
    rdp_select_negbin,
    rdp_select_poisson,
)

PROPS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
SCANS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# eps from far below 0 to past e^eps's overflow, plus values on the edges
eps_values = st.floats(-1000.0, 1000.0) | st.sampled_from(
    [0.0, -0.0, 1e-300, 500.0, 709.0, 709.8, 710.0, 1e4])
eps_arrays = st.lists(eps_values, min_size=1, max_size=80).map(np.array)

small_deltas = st.floats(0.0, 1.0) | st.floats(1e-15, 1e-3)


@st.composite
def point_lists(draw, past_exp_range=None):
    """(eps, delta) points; with past_exp_range the largest eps lies
    where e^eps overflows, so the profile takes its other form."""
    pts = draw(st.lists(st.tuples(st.floats(0.0, 40.0), small_deltas),
                        min_size=1, max_size=8))
    if past_exp_range is None:
        past_exp_range = draw(st.booleans())
    if past_exp_range:
        pts.append((draw(st.floats(709.8, 2000.0)), draw(small_deltas)))
    return pts


def scalar_values(profile, eps):
    return [profile(e).hex() for e in eps.tolist()]


def array_values(profile, eps):
    out = profile.on_array(eps)
    assert out.dtype == np.float64 and out.shape == eps.shape
    return [v.hex() for v in out.tolist()]


@PROPS
@given(st.floats(0.05, 100.0), st.floats(0.1, 10.0), eps_arrays)
def test_gaussian_array_equals_scalar(sigma, sensitivity, eps):
    prof = gaussian_profile(sigma, sensitivity)
    assert array_values(prof, eps) == scalar_values(prof, eps)


@PROPS
@given(point_lists(), eps_arrays)
def test_points_array_equals_scalar(points, eps):
    prof = profile_from_points(points)
    # the knots themselves are where the minimum switches points
    eps = np.concatenate([eps, np.array(prof.knots)])
    assert array_values(prof, eps) == scalar_values(prof, eps)


def test_points_array_is_evaluated_in_blocks():
    # more (eps, point) cells than one block holds: blocks join seamlessly
    pts = [(0.01 * i, 0.5 / (1 + i)) for i in range(700)]
    eps = np.linspace(-1.0, 8.0, 400)
    for tail in ([], [(800.0, 0.0)]):
        prof = profile_from_points(pts + tail)
        assert array_values(prof, eps) == scalar_values(prof, eps)


bases = st.one_of(
    st.floats(0.3, 30.0).map(gaussian_profile),
    point_lists(past_exp_range=False).map(profile_from_points),
    point_lists(past_exp_range=True).map(profile_from_points),
)


@PROPS
@given(bases, st.floats(1.0, 1e300), st.floats(-5.0, 50.0), st.booleans(), eps_arrays)
def test_scaled_array_equals_scalar(base, factor, shift, positive_eps_only, eps):
    prof = Scaled(base, factor, shift, positive_eps_only)
    eps = np.concatenate([eps, np.array(prof.knots), [0.0, -0.0, shift]])
    assert array_values(prof, eps) == scalar_values(prof, eps)


def test_composition_factor_past_float_range_is_refused():
    # candidates**rounds overflows a float: no delta below 1 is
    # certifiable, even over a base that is exactly 0 from eps = 2 on
    with pytest.raises(ValueError, match=r"candidates\*\*rounds"):
        rnm_composition_profile(profile_from_points([(2.0, 0.0)]), 10**9, 40)
    assert rnm_profile(profile_from_points([(2.0, 0.0)]), 7)(3.0) == 0.0


@st.composite
def renyi_curves(draw):
    """A Gaussian curve over the full order grid, its negbin baseline, or
    a Poisson baseline that keeps only its admissible orders."""
    base = gaussian_rdp_curve(draw(st.floats(0.3, 30.0)))
    kind = draw(st.sampled_from(("base", "negbin", "poisson")))
    if kind == "negbin":
        return rdp_select_negbin(base, draw(st.floats(-0.9, 3.0)), draw(st.floats(1e-4, 0.9)))
    if kind == "poisson":
        eps_hat = draw(st.floats(0.05, 2.0))
        point = PointDP(eps_hat, rdp_to_dp(base, eps_hat))
        return rdp_select_poisson(base, point, draw(st.floats(1.0, 1e4)))
    return base


@PROPS
@given(renyi_curves(), eps_arrays)
def test_renyi_array_equals_scalar(curve, eps):
    prof = rdp_profile(curve)
    assert array_values(prof, eps) == scalar_values(prof, eps)


def test_renyi_array_over_a_poisson_filtered_curve():
    base = gaussian_rdp_curve(2.0)
    curve = rdp_select_poisson(base, PointDP(1.0, rdp_to_dp(base, 1.0)), 50.0)
    assert len(curve.orders) < len(base.orders)
    eps = np.linspace(-2.0, 40.0, 301)
    assert array_values(rdp_profile(curve), eps) == scalar_values(rdp_profile(curve), eps)


@st.composite
def loss_distributions(draw):
    """A small discretized loss distribution whose grid reaches past
    eps = 500, where delta sums directly instead of factoring e^eps."""
    spacing = draw(st.sampled_from([0.5, 1.0, 7.0]))
    origin = draw(st.integers(int(-50 / spacing), int(560 / spacing)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    tail = draw(st.sampled_from([0.0, 1e-12, 0.25]))
    mass = np.array(weights) + 1e-3
    return DiscretePLD(spacing, origin, mass * ((1.0 - tail) / mass.sum()), tail)


@PROPS
@given(loss_distributions(), loss_distributions(), eps_arrays)
def test_pld_array_equals_scalar(remove, add, eps):
    prof = Pld(remove, add)
    # the grid points, and beyond both ends of each grid
    for d in (remove, add):
        ell = (d.origin_index + np.arange(len(d.mass))) * d.spacing
        eps = np.concatenate([eps, ell, ell[-1:] + 1.0, ell[:1] - 1.0])
    for direction in (remove, add):
        assert [v.hex() for v in direction.deltas(eps).tolist()] == [
            direction.delta(e).hex() for e in eps.tolist()]
    assert array_values(prof, eps) == scalar_values(prof, eps)


def test_subsampled_gaussian_array_equals_scalar():
    prof = subsampled_gaussian_profile(SubsampledGaussianParams(0.05, 1.0, 4),
                                       GridSpec(spacing=1e-3))
    eps = np.concatenate([np.linspace(-1.0, 12.0, 500), [0.0, 600.0, 1e4]])
    assert array_values(prof, eps) == scalar_values(prof, eps)


_PLD = DiscretePLD(1.0, 498, np.array([0.25, 0.5, 0.25]), 0.0)


@pytest.mark.parametrize("profile", [
    gaussian_profile(4.0),
    profile_from_points([(0.5, 1e-3), (3.0, 1e-9)]),
    profile_from_points([(0.5, 1e-3), (800.0, 0.0)]),
    Scaled(gaussian_profile(4.0), 30.0, 0.7),
    Scaled(profile_from_points([(0.5, 1e-3)]), 30.0, 0.7, positive_eps_only=True),
    rnm_composition_profile(gaussian_profile(4.0, 4.0), 10, 4),
    rdp_profile(gaussian_rdp_curve(4.0)),
    Pld(_PLD, _PLD),
], ids=["gaussian", "points", "points-past-exp-range", "scaled", "scaled-positive",
        "rnm-composition", "renyi", "pld"])
def test_nan_eps_is_refused_by_both_forms(profile):
    with pytest.raises(ValueError, match="NaN"):
        profile(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        profile.on_array(np.array([0.5, math.nan, 1.0]))


def test_clip_delta_array():
    x = np.array([-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5, math.inf, -math.inf])
    assert clip_delta_array(x).tolist() == [0.0, 0.0, 0.0, 1e-300, 0.5, 1.0,
                                            1.0, 1.0, 0.0]
    assert math.copysign(1.0, clip_delta_array(np.array([-0.0]))[0]) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        clip_delta_array(np.array([0.5, math.nan]))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_scan_optimize(base, penalty):
    """optimize_eps1 as it was before array evaluation: one scalar base
    call per candidate, then the same golden-section refinement."""
    try:
        eps_hi = min(epsilon_for_delta(base, 1e-15), EPS1_CAP)
    except UnreachableTargetError:
        eps_hi = EPS1_CAP
    eps_hi = max(eps_hi, 1e-3)
    cand = [0.0]
    cand.extend(np.geomspace(GRID_LO, eps_hi, GRID_POINTS))
    cand.extend(k for k in base.knots if 0.0 <= k <= eps_hi)
    if penalty.eps1_min <= eps_hi:
        cand.append(penalty.eps1_min)
    cand = sorted(set(float(c) for c in cand))

    def f(e1):
        return penalty(e1, base(e1))

    def golden(a, b):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        while b - a > REFINE_TOL:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    vals = [f(c) for c in cand]
    i = min(range(len(cand)), key=lambda j: (vals[j], cand[j]))
    best_e, best_v = cand[i], vals[i]
    lo = cand[i - 1] if i > 0 else cand[i]
    hi = cand[i + 1] if i + 1 < len(cand) else cand[i]
    if hi - lo > REFINE_TOL:
        refined = golden(lo, hi)
        rv = f(refined)
        if rv < best_v or (rv == best_v and refined < best_e):
            best_e, best_v = refined, rv
    return best_e


@st.composite
def penalties(draw):
    """A negbin, Poisson, or binomial-shaped penalty, the last +inf below
    a drawn threshold, its eps1_min."""
    kind = draw(st.sampled_from(("negbin", "poisson", "binomial")))
    if kind == "negbin":
        return negbin_penalty(draw(st.floats(-0.9, 3.0)),
                              draw(st.floats(1e-4, 0.9)))
    if kind == "poisson":
        return PoissonPenalty(draw(st.floats(0.1, 1000.0)))
    n, p = draw(st.integers(2, 200)), draw(st.floats(0.01, 0.99))
    return BinomialPenalty(n, p, draw(st.floats(0.0, 3.0)))


@pytest.mark.parametrize("penalty", [
    *map(PoissonPenalty, (0.1, 3.0, 1e3, 1e300)),
    *(negbin_penalty(eta, gamma) for eta, gamma in
      ((-0.9, 0.9), (0.0, 0.5), (3.0, 1e-4), (1.0, 1e-300))),
    BinomialPenalty(2, 0.01, 0.0), BinomialPenalty(200, 0.99, 1.5),
    BinomialPenalty(10**6, 0.5, 0.3),
], ids=repr)
def test_penalty_array_form_tracks_the_scalar_form(penalty):
    # the bound optimize_eps1's pruning window rests on, and no warning
    # (an error under this suite) where the scalar form is +inf
    e1 = np.concatenate(([0.0], np.geomspace(GRID_LO, EPS1_CAP, GRID_POINTS)))
    for d1 in (0.0, 1e-15, 1e-6, 0.3, 1.0):
        got = penalty.on_array(e1, np.full(len(e1), d1))
        want = np.array([penalty(e, d1) for e in e1.tolist()])
        weight = getattr(penalty, "weight", 0.0)
        assert (np.isinf(got) == np.isinf(want)).all()
        fin = np.isfinite(want)
        assert (abs(got[fin] - want[fin]) <= 1e-14 * want[fin] + weight * 1e-15).all()


@SCANS
@given(bases, penalties())
def test_optimize_eps1_matches_a_scalar_scan(base, penalty):
    got = optimize_eps1(base, penalty)
    assert got.hex() == scalar_scan_optimize(base, penalty).hex()



def test_grid_is_geomspace_bit_for_bit():
    rng = np.random.default_rng(7)
    lo, hi = math.log(1e-3), math.log(EPS1_CAP)
    for eps_hi in [1e-3, EPS1_CAP, *np.exp(rng.uniform(lo, hi, 500)).tolist(),
                   *rng.uniform(1e-3, EPS1_CAP, 500).tolist()]:
        want = np.geomspace(GRID_LO, eps_hi, GRID_POINTS)
        assert _grid(eps_hi).tobytes() == want.tobytes(), eps_hi


def test_a_negative_zero_knot_yields_a_positive_zero_eps1():
    # delta is 0 from eps = 0 on, so eps1 = 0 wins; with this many knots
    # np.unique may keep the knot -0.0 over 0.0
    rng = np.random.default_rng(0)
    for _ in range(4):
        base = profile_from_points([(-0.0, 0.0)] + [
            (e, 0.0) for e in rng.uniform(0.0, 1e-3, 500).tolist()])
        assert math.copysign(1.0, base.knots[0]) == -1.0
        for penalty in (negbin_penalty(1.0, 0.1), PoissonPenalty(3.0)):
            assert optimize_eps1(base, penalty).hex() == "0x0.0p+0"
            assert scalar_scan_optimize(base, penalty).hex() == "0x0.0p+0"


def test_exact_ties_go_to_the_smallest_eps1():
    # a flat base and a ratio so large that e^eps1 vanishes beside it:
    # every candidate below eps1 ~ 7.6 has the same penalty, to the bit
    base = profile_from_points([(0.0, 0.3)])
    penalty = NegBinPenalty(2.0, 1e20)
    assert penalty(0.0, 0.3) == penalty(7.0, 0.3)
    got = optimize_eps1(base, penalty)
    assert got == 0.0
    assert got.hex() == scalar_scan_optimize(base, penalty).hex()


@pytest.mark.parametrize("e0", [0.1, 0.3, 0.5, 0.7, 1.0, 2.0])
def test_rounding_level_ties_are_settled_by_the_scalar_form(e0):
    # below e0 the base is e^e0 - e^eps1, so a Poisson penalty m (e^e0 - 1)
    # and a negbin penalty with ratio 1, w e0, are flat in exact
    # arithmetic; the candidates then differ only by rounding, where
    # numpy's expm1 and exp differ from math's
    base = profile_from_points([(e0, 0.0)])
    for penalty in [*map(PoissonPenalty, (0.5, 1.0, 3.0, 7.0, 10.0, 100.0)),
                    *(NegBinPenalty(w, 1.0) for w in (1.0, 2.0, 3.5))]:
        got = optimize_eps1(base, penalty)
        assert got.hex() == scalar_scan_optimize(base, penalty).hex()

