"""Best-of-K selection bounds: profiles, closed forms, Renyi baselines."""

import math

import numpy as np
import pytest

from privsel.countdist import Binomial, Poisson, TruncNegBinomial, from_expected
from privsel.errors import EmptyCurveError, NoAdmissibleEps1Error
from privsel.profiles import (
    PointDP,
    RdpCurve,
    default_orders,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
)
from privsel.selection import (
    adjust_guarantee,
    bound_for_count,
    gptr_combine,
    negbin_penalty,
    optimize_eps1,
    rdp_select_negbin,
    rdp_select_poisson,
    select_binomial_profile,
    select_gdp_eps,
    select_negbin_pointwise,
    select_negbin_profile,
    select_negbin_pure,
    select_poisson_profile,
)

DELTA = 1e-6

# closed form at sigma=4, eta=1, gamma=0.1, delta=1e-6
GDP_EPS_FROZEN = 4.352020320666333

# optimized geometric-count bounds on the sigma=4 Gaussian base
FROZEN_EPS_HS = {30: 2.288311004638672, 300: 2.7937984466552734,
                 3000: 3.213634490966797}
FROZEN_EPS1 = {30: 0.4234115034644669, 300: 0.6467361735528931,
               3000: 0.8194605191502615}


def test_pure_base_triples_epsilon():
    assert select_negbin_pure(1.0, 1.0) == 3.0
    assert select_negbin_pure(0.7, 1.0) == pytest.approx(2.1, rel=1e-15)
    assert select_negbin_pure(2.0, 0.5) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        select_negbin_pure(-1.0, 1.0)
    with pytest.raises(ValueError):
        select_negbin_pure(1.0, -1.0)


def test_pure_base_profile_path_matches_closed_form():
    # the profile route lands on the same 3x transition point
    base = profile_from_points([(1.0, 0.0)])
    res = select_negbin_profile(base, 1.0, 0.1)
    assert res.eps1 == pytest.approx(1.0, abs=1e-9)
    assert res.shift == pytest.approx(2.0, abs=2e-9)
    assert res.profile(3.0 + 1e-6) == 0.0
    assert res.profile(3.0 - 1e-6) > 0.0
    assert res.profile(2.999) == pytest.approx(0.02716923140478222, rel=1e-6)


def test_single_point_guarantee_arithmetic():
    point = PointDP(1.0, 1e-5)
    out = select_negbin_pointwise(point, 1.0, 0.1)
    assert out.eps == pytest.approx(3.0 + 1e-5 / 0.1, rel=1e-12)
    assert out.delta == pytest.approx(10.0 * 1e-5, rel=1e-12)


def test_gdp_closed_form():
    got = select_gdp_eps(4.0, 1.0, 0.1, DELTA)
    assert got == pytest.approx(GDP_EPS_FROZEN, rel=1e-12)
    hand = 3.0 * (1 / 32 + math.sqrt(2 * math.log(1e7)) / 4) + DELTA
    assert got == pytest.approx(hand, rel=1e-12)
    with pytest.raises(ValueError):
        select_gdp_eps(0.0, 1.0, 0.1, DELTA)
    with pytest.raises(ValueError):
        select_gdp_eps(4.0, 1.0, 1.0, DELTA)
    with pytest.raises(ValueError):
        select_gdp_eps(4.0, 1.0, 0.1, 0.0)


def test_optimized_geometric_bounds_frozen():
    base = gaussian_profile(4.0, 1.0)
    for m, expected in FROZEN_EPS_HS.items():
        res = select_negbin_profile(base, 1.0, 1.0 / m)
        assert res.eps1 == pytest.approx(FROZEN_EPS1[m], rel=1e-9)
        assert epsilon_for_delta(res.profile, DELTA) == pytest.approx(
            expected, abs=2e-6)


def test_hs_below_rdp_and_closed_form():
    base = gaussian_profile(4.0, 1.0)
    base_rdp = gaussian_rdp_curve(4.0)
    for m in (30, 300, 3000):
        eps_hs = epsilon_for_delta(
            select_negbin_profile(base, 1.0, 1.0 / m).profile, DELTA)
        eps_rdp = epsilon_for_delta(
            rdp_profile(rdp_select_negbin(base_rdp, 1.0, 1.0 / m)), DELTA)
        eps_gdp = select_gdp_eps(4.0, 1.0, 1.0 / m, DELTA)
        assert eps_hs < eps_rdp
        assert eps_hs <= eps_gdp


def test_shift_arithmetic_with_fixed_eps1():
    base = gaussian_profile(4.0, 1.0)
    e1 = 0.5
    res = bound_for_count(base, TruncNegBinomial(1.0, 0.1), e1)
    assert res.eps1 == e1
    expect = 2.0 * math.log(math.exp(e1) + 9.0 * base(e1))
    assert res.shift == pytest.approx(expect, rel=1e-14)
    for eps in (1.0, 3.0):
        assert res.profile(eps) == pytest.approx(
            min(1.0, 10.0 * base(eps - res.shift)), rel=1e-12)
    with pytest.raises(ValueError):
        bound_for_count(base, TruncNegBinomial(1.0, 0.1), -0.5)


def test_poisson_shift_arithmetic():
    base = gaussian_profile(4.0, 1.0)
    e1 = 0.2
    res = bound_for_count(base, Poisson(5.0), e1)
    expect = 5.0 * math.expm1(e1) + 5.0 * base(e1)
    assert res.shift == pytest.approx(expect, rel=1e-14)
    # a count with mass at zero certifies nothing at eps <= 0
    assert res.profile(0.0) == 1.0
    assert res.profile(-1.0) == 1.0
    assert res.profile(res.shift + 1.0) < 1.0


def test_binomial_profile_certifies_only_positive_eps():
    base = gaussian_profile(4.0, 1.0)
    res = select_binomial_profile(base, 1000, 0.01)
    assert res.profile(0.0) == 1.0
    assert res.profile(2.0) < 1e-3
    assert res.eps1 >= 0.0


def test_binomial_approaches_poisson():
    base = gaussian_profile(4.0, 1.0)
    eps_pois = epsilon_for_delta(
        select_poisson_profile(base, 10.0).profile, DELTA)
    gaps = []
    for n in (15, 100, 100000):
        eps_n = epsilon_for_delta(
            select_binomial_profile(base, n, 10.0 / n).profile, DELTA)
        gaps.append(abs(eps_n - eps_pois))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] / eps_pois < 1e-3


def test_binomial_inadmissible_eps1_raises():
    # a base stuck at delta ~ 1 has no eps1 satisfying the threshold
    flat = profile_from_points([(0.0, 1.0)])
    with pytest.raises(NoAdmissibleEps1Error):
        bound_for_count(flat, Binomial(10, 0.9), 0.0)


def test_fixed_eps1_whose_shift_overflows_raises():
    base = gaussian_profile(4.0, 1.0)
    # e^710 overflows math.exp; m * (e^700 - 1) overflows to inf
    for dist, e1 in ((TruncNegBinomial(1.0, 0.1), 710.0),
                     (Binomial(100, 0.1), 710.0),
                     (Poisson(1e300), 700.0)):
        with pytest.raises(ValueError, match=f"eps1={e1:g} is too large"):
            bound_for_count(base, dist, e1)


def test_optimizer_no_worse_than_dense_scan():
    base = gaussian_profile(4.0, 1.0)

    def penalty(e1, d1):
        return 2.0 * math.log(math.exp(e1) + 99.0 * d1)

    star = optimize_eps1(base, penalty)
    best = penalty(star, base(star))
    for e1 in np.linspace(0.0, 6.0, 2001):
        assert best <= penalty(float(e1), base(float(e1))) + 1e-9


def test_rdp_negbin_constant_curve_identity():
    c, eta, gamma = 0.5, 1.0, 0.1
    grid = default_orders()
    curve = rdp_select_negbin(RdpCurve(grid, np.full(len(grid), c)), eta, gamma)
    orders = np.asarray(curve.orders)
    extra = (eta + 1.0) * float(
        np.min((1 - 1 / orders) * c + math.log(1 / gamma) / orders))
    m = TruncNegBinomial(eta, gamma).mean()
    for alpha in (2.0, 8.0, 64.0):
        expect = c + extra + math.log(m) / (alpha - 1.0)
        assert curve(alpha) == pytest.approx(expect, rel=1e-12)


def test_rdp_poisson_filters_orders():
    base = gaussian_rdp_curve(4.0)
    point = PointDP(0.1, 1e-7)
    curve = rdp_select_poisson(base, point, 10.0)
    cap = 1.0 + 1.0 / math.expm1(0.1)
    assert max(curve.orders) <= cap
    assert curve(2.0) == pytest.approx(
        base(2.0) + 10.0 * 1e-7 + math.log(10.0), rel=1e-12)
    with pytest.raises(EmptyCurveError):
        rdp_select_poisson(base, PointDP(10.0, 1e-7), 10.0)


def test_adjust_guarantee_arithmetic():
    out = adjust_guarantee(0.5, 1e-3, 1.2, 1.0, 0.1, 10.0, DELTA)
    shift = 2.0 * math.log(math.exp(0.5) + 9.0 * 1e-3)
    assert out.eps == pytest.approx(1.2 + shift, rel=1e-14)
    assert out.delta == DELTA
    # a zero delta1 collapses the shift to (eta+1) * eps1
    clean = adjust_guarantee(0.5, 0.0, 1.2, 1.0, 0.1, 10.0, DELTA)
    assert clean.eps == pytest.approx(1.2 + 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        adjust_guarantee(-0.1, 0.0, 1.0, 1.0, 0.1, 10.0, DELTA)
    with pytest.raises(ValueError):
        adjust_guarantee(0.5, 0.0, 1.0, 1.0, 1.5, 10.0, DELTA)


def test_gptr_combine_arithmetic():
    out = gptr_combine(1.0, 1e-6, 0.5, 1e-7, 1e-8)
    assert out.eps == pytest.approx(1.5, rel=1e-14)
    assert out.delta == pytest.approx(1e-6 + 1e-7 + 1e-8, rel=1e-14)
    assert gptr_combine(0.0, 0.9, 0.0, 0.9, 0.0).delta == 1.0
    with pytest.raises(ValueError):
        gptr_combine(-1.0, 0.0, 0.0, 0.0, 0.0)


def test_bound_for_count_dispatch():
    base = gaussian_profile(4.0, 1.0)
    nb = bound_for_count(base, TruncNegBinomial(1.0, 0.1))
    bi = bound_for_count(base, Binomial(50, 0.2))
    po = bound_for_count(base, Poisson(10.0))
    # each shift is its family's penalty at the eps1 it settled on
    nb_pen = negbin_penalty(1.0, 0.1)(nb.eps1, base(nb.eps1))
    bi_pen = 49.0 * math.log1p(0.2 * math.expm1(bi.eps1) + 0.2 * base(bi.eps1))
    po_pen = 10.0 * math.expm1(po.eps1) + 10.0 * base(po.eps1)
    assert nb.shift == pytest.approx(nb_pen, rel=1e-14)
    assert bi.shift == pytest.approx(bi_pen, rel=1e-14)
    assert po.shift == pytest.approx(po_pen, rel=1e-14)
    # counts that can draw zero certify nothing at eps = 0; a negbin count
    # never draws zero, so a small-mean one certifies something there
    assert bi.profile(0.0) == 1.0
    assert po.profile(0.0) == 1.0
    assert bound_for_count(base, TruncNegBinomial(1.0, 0.9)).profile(0.0) < 1.0
    with pytest.raises(TypeError):
        bound_for_count(base, object())


def test_mean_matched_count_ordering():
    # at the same mean, counts that can draw zero pay a mean-proportional
    # penalty while the truncated count's penalty is logarithmic; within
    # binomials, fewer trials mean a larger p and a higher admissibility
    # floor, so the Poisson limit is approached from above
    base = gaussian_profile(4.0, 1.0)
    m = 10.0
    eps_nb = epsilon_for_delta(
        select_negbin_profile(base, 1.0, 1.0 / m).profile, DELTA)
    eps_bi = epsilon_for_delta(
        select_binomial_profile(base, 15, m / 15).profile, DELTA)
    eps_po = epsilon_for_delta(select_poisson_profile(base, m).profile, DELTA)
    assert eps_nb < eps_po < eps_bi
