"""Array evaluation of base profiles against their scalar form.

A Gaussian or point-list profile evaluated over an array of eps must give
exactly the floats its scalar evaluator gives one eps at a time, refuse
a NaN the same way, and leave `optimize_eps1` choosing the same eps1 as
a scan that calls the base once per candidate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel.errors import UnreachableTargetError
from privsel.profiles import (
    clip_delta_array,
    epsilon_for_delta,
    gaussian_profile,
    profile_from_points,
)
from privsel.selection import (
    EPS1_CAP,
    GRID_LO,
    GRID_POINTS,
    REFINE_TOL,
    negbin_penalty,
    optimize_eps1,
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


@pytest.mark.parametrize("profile", [
    gaussian_profile(4.0),
    profile_from_points([(0.5, 1e-3), (3.0, 1e-9)]),
    profile_from_points([(0.5, 1e-3), (800.0, 0.0)]),
], ids=["gaussian", "points", "points-past-exp-range"])
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


def scalar_scan_optimize(base, penalty, extra=()):
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
    cand.extend(e for e in extra if 0.0 <= e <= eps_hi)
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
    """(penalty, extra candidates): negbin, Poisson, or a binomial-shaped
    penalty that is +inf below a drawn threshold, passed as an extra."""
    kind = draw(st.sampled_from(("negbin", "poisson", "binomial")))
    if kind == "negbin":
        return negbin_penalty(draw(st.floats(-0.9, 3.0)),
                              draw(st.floats(1e-4, 0.9))), ()
    if kind == "poisson":
        m = draw(st.floats(0.1, 1000.0))
        return (lambda e1, d1: m * math.expm1(e1) + m * d1), ()
    n, p = draw(st.integers(2, 200)), draw(st.floats(0.01, 0.99))
    t = draw(st.floats(0.0, 3.0))

    def penalty(e1, d1):
        if e1 < t:
            return math.inf
        return (n - 1.0) * math.log1p(p * math.expm1(e1) + p * d1)

    return penalty, (t,)


bases = st.one_of(
    st.floats(0.3, 30.0).map(gaussian_profile),
    point_lists(past_exp_range=False).map(profile_from_points),
    point_lists(past_exp_range=True).map(profile_from_points),
)


@SCANS
@given(bases, penalties())
def test_optimize_eps1_matches_a_scalar_scan(base, pen):
    penalty, extra = pen
    got = optimize_eps1(base, penalty, extra=extra)
    assert got.hex() == scalar_scan_optimize(base, penalty, extra=extra).hex()
