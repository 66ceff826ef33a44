"""Profile evaluators, Renyi conversion, and inversion helpers."""

import math

import pytest

from privsel.errors import UnreachableTargetError
from privsel.profiles import (
    PointDP,
    RdpCurve,
    default_orders,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    gaussian_sigma_for_eps_delta,
    profile_from_points,
    rdp_profile,
    rdp_to_dp,
)

# hand-evaluated Phi(1/8 - eps*4) - e^eps Phi(-1/8 - eps*4) at sigma=4
GAUSS4_DELTA_AT_0 = 0.09947644966022562
GAUSS4_DELTA_AT_1 = 2.9242721048563415e-06

# exp((alpha-1)(eps' - eps)) / alpha * (1 - 1/alpha)^(alpha-1)
# at alpha=2, eps'=1, eps=3: e^(-2) / 4
RDP_SINGLE_ORDER_DELTA = 0.03383382080915317


def test_gaussian_profile_frozen_values():
    prof = gaussian_profile(4.0, 1.0)
    assert prof(0.0) == pytest.approx(GAUSS4_DELTA_AT_0, rel=1e-14)
    assert prof(1.0) == pytest.approx(GAUSS4_DELTA_AT_1, rel=1e-12)


def test_gaussian_profile_scales_with_ratio():
    # delta depends on sensitivity and sigma only through their ratio
    a = gaussian_profile(4.0, 1.0)
    b = gaussian_profile(8.0, 2.0)
    for eps in (0.0, 0.5, 1.0, 3.0):
        assert a(eps) == pytest.approx(b(eps), rel=1e-14)


def test_gaussian_profile_monotone_and_bounded():
    prof = gaussian_profile(1.0, 2.0)
    prev = 1.0
    for eps in [0.1 * k for k in range(0, 80)]:
        d = prof(eps)
        assert 0.0 <= d <= prev
        prev = d
    assert prof(80.0) == 0.0


def test_gaussian_profile_deep_tail_accuracy():
    # the exponent-factored form must survive far past where naive
    # evaluation of e^eps * Phi would overflow or cancel
    d = gaussian_profile(1.0, 1.0)(20.0)
    assert 0.0 < d < 1e-60
    # and collapse cleanly to zero once the value underflows doubles
    assert gaussian_profile(0.5, 1.0)(200.0) == 0.0


def test_profile_from_points_interpolation():
    prof = profile_from_points([(1.0, 1e-4), (2.0, 1e-6)])
    assert prof(1.0) == pytest.approx(1e-4, rel=1e-12)
    assert prof(2.0) == pytest.approx(1e-6, rel=1e-12)
    assert prof(5.0) == pytest.approx(1e-6, rel=1e-12)
    # between knots: delta_i + (e^eps_i - e^eps), never below the knot value
    mid = prof(1.5)
    expect = min(1e-4, 1e-6 + math.exp(2.0) - math.exp(1.5))
    assert mid == pytest.approx(expect, rel=1e-12)
    # below the lowest knot the extension grows but clips at 1
    assert prof(0.9) == pytest.approx(1e-4 + math.e - math.exp(0.9), rel=1e-12)
    assert prof(0.0) == 1.0
    # the knots are the points' eps, read by the negbin knot rule
    assert prof.eps.tolist() == [1.0, 2.0]


def test_profile_from_points_accepts_point_dp():
    prof = profile_from_points([PointDP(1.0, 0.0)])
    assert prof(1.0) == 0.0
    assert prof(0.999) > 0.0


def test_profile_from_points_past_the_exp_range():
    # the largest point's e^eps overflows a float: no overflow, no warning,
    # and every eps below that point is still charged the full gap
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = profile_from_points([(1.0, 1e-3), (800.0, 0.0)])
        assert prof(1000.0) == 0.0
        assert prof(800.0) == 0.0
        assert prof(799.9) == 1e-3
        assert prof(0.99) == pytest.approx(1e-3 + math.e - math.exp(0.99), rel=1e-12)
        assert profile_from_points([(800.0, 0.0)])(799.9) == 1.0


def test_profile_from_points_past_the_exp_range_far_below_zero():
    # e^eps underflows to 0 below eps = -745 while e^(eps_i - eps) overflows;
    # the gap is then infinite, not 0 * inf = NaN
    prof = profile_from_points([(0.0, 0.0), (710.0, 0.0)])
    assert prof(-746.0) == 1.0
    assert prof(-1e4) == 1.0
    assert prof(0.0) == 0.0


def test_profile_from_points_rejects_empty():
    with pytest.raises(ValueError):
        profile_from_points([])


@pytest.mark.parametrize("point", [(1.0, -0.5), (-3.0, 1e-7), (1.0, 1.5)])
def test_profile_from_points_keeps_the_point_dp_rule(point):
    with pytest.raises(ValueError):
        profile_from_points([(0.5, 1e-6), point])


def test_point_dp_validation():
    with pytest.raises(ValueError):
        PointDP(-0.1, 0.0)
    with pytest.raises(ValueError):
        PointDP(1.0, 1.5)


def test_rdp_to_dp_single_order():
    curve = RdpCurve((2.0,), [1.0])
    assert rdp_to_dp(curve, 3.0) == pytest.approx(RDP_SINGLE_ORDER_DELTA, rel=1e-14)


def test_rdp_to_dp_clips_to_one():
    curve = RdpCurve((2.0, 4.0), [50.0, 50.0])
    assert rdp_to_dp(curve, 0.0) == 1.0


def test_rdp_profile_beats_no_order():
    # the minimum over the grid is at most any single-order value
    curve = gaussian_rdp_curve(2.0)
    prof = rdp_profile(curve)
    for eps in (0.5, 1.0, 2.0):
        single = rdp_to_dp(RdpCurve((8.0,), [curve(8.0)]), eps)
        assert prof(eps) <= single + 1e-18


def test_rdp_dominates_exact_gaussian():
    # the converted Renyi curve is a valid upper bound on the true profile
    sigma = 3.0
    exact = gaussian_profile(sigma, 1.0)
    conv = rdp_profile(gaussian_rdp_curve(sigma))
    for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert conv(eps) >= exact(eps)


def test_default_orders_shape():
    orders = default_orders()
    assert orders[0] == pytest.approx(1.1)
    assert orders[-1] == 256.0
    assert all(b > a for a, b in zip(orders, orders[1:]))


def test_epsilon_for_delta_inverts_gaussian():
    prof = gaussian_profile(4.0, 1.0)
    eps = epsilon_for_delta(prof, 1e-6)
    assert prof(eps) <= 1e-6
    assert prof(eps - 2e-6) > 1e-6


def test_epsilon_for_delta_at_zero_eps():
    prof = gaussian_profile(4.0, 1.0)
    assert epsilon_for_delta(prof, 0.5) == 0.0


def test_epsilon_for_delta_validates_target():
    prof = gaussian_profile(4.0, 1.0)
    with pytest.raises(ValueError):
        epsilon_for_delta(prof, 0.0)
    with pytest.raises(ValueError):
        epsilon_for_delta(prof, 1.5)


def test_epsilon_for_delta_unreachable():
    floor = profile_from_points([(0.0, 1e-3)])
    with pytest.raises(UnreachableTargetError):
        epsilon_for_delta(floor, 1e-9)


def test_sigma_solve_round_trip():
    sigma = gaussian_sigma_for_eps_delta(1.5, 1e-6)
    assert sigma == pytest.approx(2.904057947019103, rel=1e-9)
    assert gaussian_profile(sigma, 1.0)(1.5) == pytest.approx(1e-6, rel=1e-9)


def test_sigma_solve_validates():
    with pytest.raises(ValueError):
        gaussian_sigma_for_eps_delta(0.0, 1e-6)
    with pytest.raises(ValueError):
        gaussian_sigma_for_eps_delta(1.0, 0.0)
