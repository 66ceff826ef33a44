"""Property tests of Renyi curves as arrays and their exact inversion.

Over random Gaussian noise scales, negative-binomial and Poisson count
parameters, Poisson base points and delta targets: a curve's cached
array matches its scalar map bit for bit, the vectorised conversion
matches a per-order loop, and the closed-form eps(delta) is certified by
the conversion and sits within the bisection tolerance below the
bisection answer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel.errors import EmptyCurveError, UnreachableTargetError
from privsel.profiles import (
    BISECT_TOL,
    PointDP,
    PrivacyProfile,
    RdpCurve,
    epsilon_for_delta,
    gaussian_rdp_curve,
    rdp_eps_for_delta,
    rdp_profile,
    rdp_to_dp,
)
from privsel.selection import rdp_select_negbin, rdp_select_poisson

PROPS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

sigmas = st.floats(0.3, 30.0)
etas = st.floats(-0.9, 3.0)
gammas = st.floats(1e-4, 0.9)
means = st.floats(1.0, 1e4)
base_eps = st.floats(1e-3, 2.0)
deltas = st.floats(-14.0, -0.5).map(lambda x: 10.0**x)


@st.composite
def curves(draw):
    """A Gaussian base curve, or its negbin or Poisson selection curve."""
    base = gaussian_rdp_curve(draw(sigmas))
    kind = draw(st.sampled_from(("base", "negbin", "poisson")))
    if kind == "negbin":
        return rdp_select_negbin(base, draw(etas), draw(gammas))
    if kind == "poisson":
        eps_hat = draw(base_eps)
        point = PointDP(eps_hat, rdp_to_dp(base, eps_hat))
        try:
            return rdp_select_poisson(base, point, draw(means))
        except EmptyCurveError:
            return base
    return base


def reference_rdp_to_dp(curve, eps):
    best = 0.0
    for a in curve.orders:
        log_d = ((a - 1) * (curve(a) - eps) + (a - 1) * math.log1p(-1 / a)
                 - math.log(a))
        best = min(best, log_d)
    return math.exp(best)


def bisection_eps(curve, delta):
    return epsilon_for_delta(PrivacyProfile(lambda e: rdp_to_dp(curve, e)), delta)


@PROPS
@given(curves())
def test_cached_values_match_scalar_map_bit_for_bit(curve):
    expect = np.array([curve.fn(a) for a in curve.orders], dtype=float)
    assert curve.values.dtype == np.float64
    assert np.array_equal(curve.values, expect)


@PROPS
@given(curves(), st.floats(0.0, 20.0))
def test_rdp_to_dp_matches_per_order_loop(curve, eps):
    assert rdp_to_dp(curve, eps) == pytest.approx(
        reference_rdp_to_dp(curve, eps), rel=1e-12, abs=0.0)


@PROPS
@given(curves(), deltas)
def test_closed_form_eps_is_certified_and_within_bisection_tolerance(curve, delta):
    profile = rdp_profile(curve)
    try:
        bisected = bisection_eps(curve, delta)
    except UnreachableTargetError:
        with pytest.raises(UnreachableTargetError):
            epsilon_for_delta(profile, delta)
        return
    closed = epsilon_for_delta(profile, delta)
    assert bisected - BISECT_TOL <= closed <= bisected
    assert rdp_to_dp(curve, closed) <= delta


def test_nan_in_curve_raises_when_array_is_built():
    with pytest.raises(ValueError, match="NaN"):
        RdpCurve(lambda a: math.nan if a > 5 else a)
    with pytest.raises(ValueError, match="NaN"):
        RdpCurve(lambda a: a, orders=(2.0, 3.0), values=np.array([2.0, np.nan]))


def test_inverse_keeps_the_contract_at_the_edges():
    curve = gaussian_rdp_curve(4.0)
    profile = rdp_profile(curve)
    # every order certifies delta = 1 at eps = 0
    assert epsilon_for_delta(profile, 1.0) == 0.0
    # far beyond the search cap the closed form refuses as bisection does
    huge = RdpCurve(lambda a: 1e6, orders=(2.0, 4.0))
    with pytest.raises(UnreachableTargetError):
        epsilon_for_delta(rdp_profile(huge), 1e-6)
    assert rdp_eps_for_delta(huge, 1e-6) > 1e4


def test_lower_bracket_is_respected():
    profile = rdp_profile(gaussian_rdp_curve(4.0))
    free = epsilon_for_delta(profile, 1e-6)
    assert epsilon_for_delta(profile, 1e-6, lo=free + 1.0) == free + 1.0
