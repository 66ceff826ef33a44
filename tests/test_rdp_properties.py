"""Property tests of Renyi curves as arrays and their exact inversion.

Over random Gaussian noise scales, negative-binomial and Poisson count
parameters, Poisson base points and delta targets: a curve's array
matches per-order formulas bit for bit, the vectorised conversion
matches a per-order loop, and the closed-form eps(delta) is certified by
the conversion and sits within the bisection tolerance below the
bisection answer.  The Poisson curve `guarantee --method rdp` inverts
gives, bit for bit, the least eps over the one-point curves of 40 base
points, for random Gaussian bases and at fig6's rows.  The paper's claim
is checked the same way: the tuned hockey-stick eps of a Gaussian base
under a negative-binomial count is below the Renyi baseline's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel import scenario
from privsel.countdist import TruncNegBinomial
from privsel.errors import EmptyCurveError, UnreachableTargetError
from privsel.pld import subsampled_rdp_curve
from privsel.presets import DELTA_DEFAULT, FIG6_BASE, FIG6_PARAMS
from privsel.profiles import (
    BISECT_TOL,
    PointDP,
    PrivacyProfile,
    RdpCurve,
    default_orders,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    rdp_profile,
    rdp_to_dp,
)
from privsel.selection import rdp_select_negbin, rdp_select_poisson, select_negbin_profile

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


class BisectedRenyi(PrivacyProfile):
    """A Renyi curve's profile with no closed-form inverse, so that
    epsilon_for_delta bisects it."""

    def __init__(self, curve):
        self.curve = curve

    def _at(self, eps):
        return rdp_to_dp(self.curve, eps)


def bisection_eps(curve, delta):
    return epsilon_for_delta(BisectedRenyi(curve), delta)


def assert_curve_is(curve, orders, values):
    assert curve.orders == tuple(orders)
    assert curve.values.dtype == np.float64
    assert np.array_equal(curve.values, np.array(values, dtype=float))


@PROPS
@given(sigmas, etas, gammas, base_eps, means)
def test_values_match_per_order_formulas_bit_for_bit(sigma, eta, gamma, eps_hat, m):
    orders = default_orders()
    base = gaussian_rdp_curve(sigma)
    base_ref = [a * (1.0 / (2 * sigma**2)) for a in orders]
    assert_curve_is(base, orders, base_ref)

    extra = (eta + 1.0) * min((1.0 - 1.0 / a) * v + math.log(1.0 / gamma) / a
                              for a, v in zip(orders, base_ref))
    log_mean = math.log(TruncNegBinomial(eta, gamma).mean())
    assert_curve_is(rdp_select_negbin(base, eta, gamma), orders,
                    [v + extra + log_mean / (a - 1.0) for a, v in zip(orders, base_ref)])

    delta_hat = rdp_to_dp(base, eps_hat)
    cap = 1.0 + 1.0 / math.expm1(eps_hat)
    kept = [(a, v) for a, v in zip(orders, base_ref) if a <= cap]
    assert_curve_is(rdp_select_poisson(base, PointDP(eps_hat, delta_hat), m),
                    [a for a, _ in kept],
                    [v + m * delta_hat + math.log(m) / (a - 1.0) for a, v in kept])


@PROPS
@given(curves(), st.floats(0.0, 20.0))
def test_rdp_to_dp_matches_per_order_loop(curve, eps):
    assert rdp_to_dp(curve, eps) == pytest.approx(
        reference_rdp_to_dp(curve, eps), rel=1e-12, abs=0.0)


def scanned_poisson_eps(base, m, delta):
    """The Poisson Renyi eps as a loop: the least eps over the one-point
    curves of 40 base points read off the base curve, skipping each point
    that admits no order."""
    best = math.inf
    for eps_hat in np.geomspace(1e-3, 2.0, 40).tolist():
        point = PointDP(eps_hat, rdp_to_dp(base, eps_hat))
        try:
            curve = rdp_select_poisson(base, point, m)
        except EmptyCurveError:
            continue
        best = min(best, epsilon_for_delta(rdp_profile(curve), delta))
    return best


def outcome(f, *args):
    """f(*args) in hex, or the name of the exception it raises."""
    try:
        return f(*args).hex()
    except (UnreachableTargetError, EmptyCurveError) as e:
        return type(e).__name__


def route_eps(base, fam, delta, build):
    profile = scenario.resolve(base, fam, "rdp", delta=delta, build=build)[0]
    return epsilon_for_delta(profile, delta)


@PROPS
@given(st.floats(0.5, 20.0), st.floats(1.0, 3000.0),
       st.floats(-12.0, -3.0).map(lambda x: 10.0**x))
def test_poisson_route_is_the_scan_over_one_point_curves_bit_for_bit(sigma, m, delta):
    curve = gaussian_rdp_curve(sigma)
    assert (outcome(route_eps, {"kind": "gaussian", "sigma": sigma},
                    {"kind": "poisson", "m": m}, delta, lambda *_: curve)
            == outcome(scanned_poisson_eps, curve, m, delta))


def test_fig6_poisson_column_is_the_scan_over_one_point_curves_bit_for_bit():
    curve = subsampled_rdp_curve(FIG6_PARAMS)
    ms = [int(v) for v in np.unique(np.round(np.geomspace(2, 1000, 15)))]
    assert len(ms) == 15
    for m in ms:
        got = route_eps(FIG6_BASE, {"kind": "poisson", "m": m}, DELTA_DEFAULT,
                        lambda *_: curve)
        assert got.hex() == scanned_poisson_eps(curve, float(m), DELTA_DEFAULT).hex(), m


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
        RdpCurve(default_orders(), [math.nan if a > 5 else a for a in default_orders()])
    with pytest.raises(ValueError, match="NaN"):
        RdpCurve((2.0, 3.0), np.array([2.0, np.nan]))


def test_inverse_keeps_the_contract_at_the_edges():
    curve = gaussian_rdp_curve(4.0)
    profile = rdp_profile(curve)
    # every order certifies delta = 1 at eps = 0
    assert epsilon_for_delta(profile, 1.0) == 0.0
    # far beyond the search cap the closed form refuses as bisection does
    huge = RdpCurve((2.0, 4.0), [1e6, 1e6])
    with pytest.raises(UnreachableTargetError):
        epsilon_for_delta(rdp_profile(huge), 1e-6)
    assert rdp_profile(huge).inverse(1e-6) > 1e4


def test_an_order_off_the_grid_is_refused():
    base = gaussian_rdp_curve(4.0)
    assert base(2.0) == 2.0 / 32.0
    with pytest.raises(ValueError, match="not on the curve's grid"):
        base(2.05)
    # only orders up to 1 + 1/(e^0.5 - 1) = 2.54 are admissible here, so
    # the Poisson curve drops 200 and certifies nothing there
    poisson = rdp_select_poisson(base, PointDP(0.5, 1e-7), 10.0)
    assert max(poisson.orders) < 2.6
    with pytest.raises(ValueError, match="not on the curve's grid"):
        poisson(200.0)
    # equality is identity, not a comparison of arrays
    assert gaussian_rdp_curve(2.0) != gaussian_rdp_curve(2.0)


# about 1 ms an instance
CLAIM = settings(max_examples=500, deadline=None, database=None, derandomize=True)


@CLAIM
@given(st.floats(0.3, 30.0), st.floats(-1.0, 3.0, exclude_min=True),
       st.floats(1e-4, 0.9), st.floats(-9.0, -3.0).map(lambda x: 10.0**x))
def test_profile_route_beats_the_renyi_route(sigma, eta, gamma, delta):
    eps_hs = epsilon_for_delta(
        select_negbin_profile(gaussian_profile(sigma), eta, gamma).profile, delta)
    eps_rdp = epsilon_for_delta(
        rdp_profile(rdp_select_negbin(gaussian_rdp_curve(sigma), eta, gamma)), delta)
    assert eps_hs < eps_rdp
