"""Best-of-K selection bounds: profiles, closed forms, Renyi baselines.

`optimize_eps1` reads eps1 off the base's slope in e^eps, with no
search.  The slope's premise is checked on every node that states it,
and the eps1 each rule settles on is checked against a reference scan
that calls the base and the count's shift once per candidate: a rule's
shift is at most the scan's, in exact arithmetic, and up to a derived
rounding bound in floats.  A base without a slope is refused.
"""

import math
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privsel.countdist import Binomial, Poisson, TruncNegBinomial, from_expected
from privsel.errors import EmptyCurveError, NoAdmissibleEps1Error, UnreachableTargetError
from privsel.pld import (
    DiscretePLD,
    GridSpec,
    Pld,
    SubsampledGaussianParams,
    subsampled_gaussian_profile,
)
from privsel.profiles import (
    PointDP,
    Points,
    RdpCurve,
    Scaled,
    default_orders,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
)
from privsel.selection import (
    EPS1_CAP,
    _binomial_eps1_min,
    adjust_guarantee,
    bound_for_count,
    gptr_combine,
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
    r = 0.25
    for m, expected in FROZEN_EPS_HS.items():
        gamma = 1.0 / m
        res = select_negbin_profile(base, 1.0, gamma)
        # the slope -Phi(-r/2 - eps1/r) crosses -gamma/(1-gamma) at
        # eps1 = -r (Phi^-1(gamma/(1-gamma)) + r/2)
        crossing = -r * (NormalDist().inv_cdf(gamma / (1.0 - gamma)) + r / 2)
        assert res.eps1 == pytest.approx(crossing, rel=1e-12)
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


def test_binomial_threshold_above_the_base_range_is_in_the_eps1_range():
    # the base bottoms out at eps = 0.001, below the threshold 0.00996: a
    # range topped there offered only inadmissible candidates
    base = profile_from_points([(0.001, 1e-16)])
    dist = Binomial(2, 0.99999999999999)
    threshold = _binomial_eps1_min(base, dist.trials, dist.prob)
    assert threshold > 0.009
    assert bound_for_count(base, dist).eps1 == threshold


@pytest.mark.parametrize("select", [
    lambda base, dist: bound_for_count(base, dist),
    lambda base, dist: bound_for_count(base, dist, 0.5),
    optimize_eps1,
], ids=["optimized", "fixed", "optimize_eps1"])
@pytest.mark.parametrize("dist", [TruncNegBinomial(1.0, 0.1), Binomial(50, 0.2),
                                  Poisson(10.0)], ids=["negbin", "binomial", "poisson"])
@pytest.mark.parametrize("base", [Scaled(gaussian_profile(4.0), 30.0, 0.7),
                                  rdp_profile(gaussian_rdp_curve(4.0))],
                         ids=["scaled", "renyi"])
def test_a_base_without_a_slope_is_refused_before_it_is_evaluated(base, dist, select,
                                                                   monkeypatch):
    # eps1 is read off the base's slope in e^eps, which neither node
    # states: both entry points refuse it, a fixed eps1 too
    evaluated = []
    monkeypatch.setattr(type(base), "_at", lambda self, eps: evaluated.append(eps))
    with pytest.raises(TypeError, match=rf"\b{type(base).__name__}\b"):
        select(base, dist)
    assert evaluated == []


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
    # 2 log(e^e1 + 99 d1): weight eta + 1 = 2, ratio (1 - 0.01) / 0.01 = 99
    count = TruncNegBinomial(1.0, 0.01)
    star = optimize_eps1(base, count)
    best = count.shift(star, base(star))
    for e1 in np.linspace(0.0, 6.0, 2001):
        assert best <= count.shift(float(e1), base(float(e1))) + 1e-9


def eighty_step_bracket(base, p):
    """The binomial admissibility threshold's bracket as it was before
    Newton's method: 80 bisection steps from 0 and the doubled hi, whatever
    they change, and the threshold was the bracket's hi."""
    odds = p / (1.0 - p)

    def g(e1):
        return e1 - math.log1p(odds * base(e1))

    if g(0.0) >= 0:
        return 0.0, 0.0
    hi = 1.0
    while g(hi) < 0 and hi < EPS1_CAP:
        hi *= 2
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


_PLD_BASES = [subsampled_gaussian_profile(SubsampledGaussianParams(q, sigma, steps),
                                          GridSpec(spacing=1e-3))
              for q, sigma, steps in ((0.05, 1.0, 4), (0.3, 2.0, 1), (1.0, 3.0, 2))]


@pytest.mark.parametrize("kind", ["gaussian", "points", "pld"])
def test_binomial_threshold_is_certified_within_the_eighty_step_bracket(kind):
    # Newton's root, certified: g >= 0 there, and it lies in the old
    # bisection's last bracket up to rounding.  g is monotone only up to
    # the rounding of the base, which flips its sign back and forth over a
    # few ulps of 1 around the root, so either search may end anywhere in
    # that stretch (8 ulps of max(1, threshold) held 4.3 at most in 20,000
    # draws on Gaussian and point-list bases)
    rng = np.random.default_rng(11)
    positive = 0
    for _ in range(150):
        if kind == "gaussian":
            base = gaussian_profile(float(rng.uniform(0.3, 10.0)))
        elif kind == "points":
            eps = rng.uniform(0.0, 5.0, int(rng.integers(1, 6)))
            base = profile_from_points(zip(eps.tolist(),
                                           (10.0 ** rng.uniform(-12, 0, len(eps))).tolist()))
        else:
            base = _PLD_BASES[int(rng.integers(len(_PLD_BASES)))]
        p = float(10.0 ** rng.uniform(-15, math.log10(0.99)))
        got = _binomial_eps1_min(base, 10, p)
        lo, hi = eighty_step_bracket(base, p)
        assert got - math.log1p(p / (1.0 - p) * base(got)) >= 0
        tol = 8 * math.ulp(max(1.0, hi))
        assert lo - tol <= got <= hi + tol
        positive += got > 0
    assert positive > 100


class MisreportedSlope(Points):
    """A flat point list that claims slope -1: Newton's steps then shrink
    by about odds e^eps1 / (1 + odds delta) and do not settle."""

    def slope(self, eps):
        return -1.0


def test_binomial_threshold_falls_back_to_halving_where_newton_does_not_settle():
    base = MisreportedSlope(np.array([0.0]), np.array([1e-3]))
    got = _binomial_eps1_min(base, 10, 0.99)
    assert got.hex() == eighty_step_bracket(base, 0.99)[1].hex()
    assert got == pytest.approx(math.log1p(99 * 1e-3), rel=1e-15)


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
    out = adjust_guarantee(0.5, 1e-3, 1.2, 1.0, 0.1, DELTA)
    shift = 2.0 * math.log(math.exp(0.5) + 9.0 * 1e-3)
    assert out.eps == pytest.approx(1.2 + shift, rel=1e-14)
    assert out.delta == DELTA
    # a zero delta1 collapses the shift to (eta+1) * eps1
    clean = adjust_guarantee(0.5, 0.0, 1.2, 1.0, 0.1, DELTA)
    assert clean.eps == pytest.approx(1.2 + 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        adjust_guarantee(-0.1, 0.0, 1.0, 1.0, 0.1, DELTA)
    with pytest.raises(ValueError):
        adjust_guarantee(0.5, 0.0, 1.0, 1.0, 1.5, DELTA)


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
    # each shift is its family's at the eps1 it settled on
    nb_pen = 2.0 * math.log(math.exp(nb.eps1) + 9.0 * base(nb.eps1))
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


# eps1 read off the base's slope, against a reference scan

PROPS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
SCANS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# the reference scan's grid: SCAN_POINTS log-spaced eps1 from SCAN_LO up,
# refined by golden-section search to SCAN_TOL
SCAN_POINTS = 200
SCAN_LO = 1e-6
SCAN_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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


bases = st.one_of(
    st.floats(0.3, 30.0).map(gaussian_profile),
    point_lists(past_exp_range=False).map(profile_from_points),
    point_lists(past_exp_range=True).map(profile_from_points),
)


def knots(base):
    """The eps where a point list has kinks, which the knot rule tries."""
    return base.eps.tolist() if isinstance(base, Points) else []


def scalar_scan_optimize(base, count, eps1_min=0.0):
    """The reference scan: the least scalar shift over 0, SCAN_POINTS
    log-spaced candidates from SCAN_LO up to where the base bottoms out
    at 1e-15 (capped at EPS1_CAP, at least 1e-3), the base's knots and
    eps1_min, one base call per candidate, the smallest eps1 on a tie;
    then golden-section refinement between the winner's neighbours.  An
    eps1 below eps1_min scores +inf."""
    try:
        eps_hi = min(epsilon_for_delta(base, 1e-15), EPS1_CAP)
    except UnreachableTargetError:
        eps_hi = EPS1_CAP
    eps_hi = max(eps_hi, 1e-3)
    cand = [0.0]
    cand.extend(np.geomspace(SCAN_LO, eps_hi, SCAN_POINTS))
    cand.extend(k for k in knots(base) if 0.0 <= k <= eps_hi)
    if eps1_min <= eps_hi:
        cand.append(eps1_min)
    cand = sorted(set(float(c) for c in cand))

    def f(e1):
        d1 = base(e1)
        return math.inf if e1 < eps1_min else count.shift(e1, d1)

    def golden(a, b):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        while b - a > SCAN_TOL:
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
    if hi - lo > SCAN_TOL:
        refined = golden(lo, hi)
        rv = f(refined)
        if rv < best_v or (rv == best_v and refined < best_e):
            best_e, best_v = refined, rv
    return best_e


@st.composite
def counts(draw):
    """A (count, eps1_min) pair: a negbin or Poisson count with threshold
    0, or a binomial one with a threshold drawn apart from any base."""
    kind = draw(st.sampled_from(("negbin", "poisson", "binomial")))
    if kind == "negbin":
        return TruncNegBinomial(draw(st.floats(-0.9, 3.0)),
                                draw(st.floats(1e-4, 0.9))), 0.0
    if kind == "poisson":
        return Poisson(draw(st.floats(0.1, 1000.0))), 0.0
    n, p = draw(st.integers(2, 200)), draw(st.floats(0.01, 0.99))
    return Binomial(n, p), draw(st.floats(0.0, 3.0))


def shift_rounding(count, e1, d1):
    """A bound on how far count.shift(e1, d1) lies from the exact shift
    at e1, for d1 a point list's value there.

    Below 1 that value is a delta_i plus e^eps_i - e^e1 with e^eps_i at
    most e^e1 + 1 (or, past e^709, e^e1 expm1(eps_i - e1) at most 1):
    two exponentials, a difference and a sum, or two functions, a product
    and a sum, each within an ulp of 2 max(1, e^e1), so d1 lies within
    u = 4 ulps of that of the exact value, and e^e1 and expm1(e1) within
    one.  A Poisson shift m expm1(e1) + m d1 then carries m times both,
    plus its own three roundings.  A binomial shift (n - 1) log1p(a) with
    a = p expm1(e1) + p d1 carries p times both and three roundings in
    a, which log1p divides by 1 + a, plus an ulp of log1p and a rounding
    of the product.  A negbin shift (eta + 1) log(y) with y = e^e1 + r d1
    carries an ulp of e^e1, r u and two roundings in y, which log divides
    by y, plus an ulp of log and a rounding of the product."""
    u = 4 * math.ulp(2 * max(1.0, math.exp(e1)))
    shift = count.shift(e1, d1)
    if isinstance(count, Poisson):
        return count.rate * 2 * u + 3 * math.ulp(shift)
    if isinstance(count, TruncNegBinomial):
        ratio = (1.0 - count.success) / count.success
        y = math.exp(e1) + ratio * d1
        dy = math.ulp(math.exp(e1)) + ratio * u + 2 * math.ulp(y)
        log_err = dy / (y - dy) + math.ulp(math.log(y))
        return (count.shape + 1.0) * log_err + math.ulp(shift)
    a = count.prob * math.expm1(e1) + count.prob * d1
    da = count.prob * 2 * u + 3 * math.ulp(a)
    log_err = da / (1.0 + a - da) + math.ulp(math.log1p(a))
    return (count.trials - 1.0) * log_err + math.ulp(shift)


@SCANS
@given(bases, counts())
# the points bottom out at eps = 0.001, below the drawn threshold
@example(profile_from_points([(0.001, 1e-16)]), (Binomial(2, 0.5), 0.01))
# the least negbin shift sits at the knot, below the range's low end 1e-3
@example(profile_from_points([(0.0001, 0.0)]), (TruncNegBinomial(0.0, 0.25), 0.0))
# the negbin shift is flat below the first knot, where the scan finds a
# float one ulp lower than the rule's eps1 = 0
@example(profile_from_points([(0.5, 0.0), (710.0, 0.0)]), (TruncNegBinomial(0.0, 0.5), 0.0))
def test_optimize_eps1_matches_a_scalar_scan(base, count_and_min):
    count, eps1_min = count_and_min
    got = optimize_eps1(base, count, eps1_min)
    want = scalar_scan_optimize(base, count, eps1_min)
    if want < eps1_min:
        # a drawn eps1_min past the scalar scan's range leaves it only
        # inadmissible candidates, and its answer one that bound_for_count
        # refuses; the slope rule answers the threshold itself, and
        # optimize_eps1's range reaches up to it
        assert got == eps1_min
    elif isinstance(base, Points):
        # the rule takes the threshold, or for negbin the least shift over
        # 0, the knots and the range's top, where the scan may pick a
        # float on a shift flat up to rounding: in exact arithmetic the
        # rule's shift is at most the scan's
        if not isinstance(count, TruncNegBinomial):
            assert got == eps1_min
        d_got, d_want = base(got), base(want)
        assert count.shift(got, d_got) <= count.shift(want, d_want) + (
            shift_rounding(count, got, d_got) + shift_rounding(count, want, d_want))
    elif isinstance(count, TruncNegBinomial):
        # negbin on a Gaussian base: the crossing, where the shift is least
        assert_no_worse_than_the_scan(base, count, got, want)
    else:
        assert got.hex() == want.hex()


def negbin_rounding(count, e1, d1):
    """A bound on how far count.shift(e1, d1) lies from (eta+1) log(y),
    y = e^e1 + r U(e1), for d1 a Pld node's value s1 - e^e1 s2 + tail at
    e1: 8 ulps of y, for the exponential, the sum and r U, whose rounding
    is a few ulps of r s1, of e^e1 (r s2 <= 1 at the crossing) or of y,
    carried through log by 1/y and weighted by eta+1, plus an ulp of the
    shift."""
    ratio = (1.0 - count.success) / count.success
    y = math.exp(e1) + ratio * d1
    shift = count.shift(e1, d1)
    return (count.shape + 1.0) * 8 * math.ulp(y) / y + math.ulp(shift)


def exact_gaussian_shift(base, count, e1):
    """count.shift at (e1, base(e1)) on a Gaussian node, in mpmath: the
    float form reads the node's second term through exp(e1 + log Phi),
    whose rounding grows with |log Phi|, so a float comparison would
    measure the base's rounding rather than the choice of e1."""
    r, e = mpmath.mpf(base.r), mpmath.mpf(e1)
    u = mpmath.ncdf(r / 2 - e / r) - mpmath.exp(e) * mpmath.ncdf(-r / 2 - e / r)
    ratio = (1 - mpmath.mpf(count.success)) / count.success
    return (count.shape + 1) * mpmath.log(mpmath.exp(e) + ratio * u)


def assert_no_worse_than_the_scan(base, count, got, want):
    # the crossing's shift is the least over every eps1 in [0, EPS1_CAP],
    # so at most the scan's: in exact arithmetic on a Gaussian node, and up
    # to rounding on a Pld node, whose s1 and s2 are the node's own floats
    if isinstance(base, Pld):
        d_got, d_want = base(got), base(want)
        assert count.shift(got, d_got) <= count.shift(want, d_want) + (
            negbin_rounding(count, got, d_got) + negbin_rounding(count, want, d_want))
    else:
        with mpmath.workdps(40):
            want_shift = exact_gaussian_shift(base, count, want)
            assert exact_gaussian_shift(base, count, got) <= want_shift * (1 + 1e-30)


def _rounded_up_pld(p, q, spacing):
    """The loss distribution of P against Q on a few outcomes, each loss
    log(p/q) rounded up to the grid, and P's mass where Q has none at
    loss +inf: an upper-bounding discretization of a true pair."""
    fin = (p > 0) & (q > 0)
    cells = np.ceil(np.log(p[fin] / q[fin]) / spacing).astype(int)
    lo = int(cells.min())
    mass = np.zeros(int(cells.max()) - lo + 1)
    np.add.at(mass, cells - lo, p[fin])
    return DiscretePLD(spacing, lo, mass, float(p[q == 0].sum()))


@st.composite
def pair_plds(draw):
    """The Pld node of a random pair of distributions on up to six
    outcomes, some with no Q mass, in both directions."""
    k = draw(st.integers(1, 6))
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) + 1e-3
    q = np.array(draw(st.lists(st.floats(1e-3, 1.0) | st.just(0.0), min_size=k, max_size=k)))
    q[0] += 1e-3
    p, q = p / p.sum(), q / q.sum()
    spacing = draw(st.sampled_from([0.05, 0.5, 1.0]))
    return Pld(_rounded_up_pld(p, q, spacing), _rounded_up_pld(q, p, spacing))


@PROPS
@given(st.one_of(st.floats(0.05, 100.0).map(gaussian_profile),
                 point_lists().map(profile_from_points),
                 pair_plds()),
       st.lists(st.floats(-5.0, 700.0), min_size=2, max_size=60))
def test_base_nodes_fall_with_slope_in_minus_one_to_zero(base, eps):
    # the premise of optimize_eps1's slope rule: in x = e^eps, U does not
    # rise and x + U does not fall.  Rounding may break either by a few
    # ulps: 2 ulps of 1 for U, and 4 ulps of max(1, x) for x + U (all
    # three kinds of node stayed within 1.25 of the latter in 18,000
    # random draws)
    assert base.slope is not None
    eps = sorted({*eps, *(float(k) for k in knots(base) if k <= 700.0)})
    x = [math.exp(e) for e in eps]
    u = [base(e) for e in eps]
    for i in range(1, len(eps)):
        du = u[i] - u[i - 1]
        assert du <= 2 * math.ulp(1.0)
        assert du + (x[i] - x[i - 1]) >= -4 * math.ulp(max(1.0, x[i]))


def test_other_nodes_make_no_slope_claim():
    # a Scaled node falls at factor times its base's slope, and a Renyi
    # conversion is no hockey-stick curve: the selection bounds refuse both
    curve = gaussian_rdp_curve(4.0)
    for node in (rdp_profile(curve), Scaled(gaussian_profile(4.0), 30.0, 0.7)):
        assert node.slope is None


@SCANS
@given(st.one_of(st.floats(0.3, 30.0).map(gaussian_profile), pair_plds()),
       st.sampled_from(("poisson", "binomial")), st.floats(0.1, 1000.0),
       st.integers(2, 200), st.floats(0.01, 0.99))
def test_poisson_and_binomial_take_the_scans_eps1(base, kind, m, n, p):
    # on a node whose slope in e^eps lies in [-1, 0], the Poisson and the
    # binomial shift never fall as eps1 rises: the scan's winner is the
    # threshold, which the rule returns with no search
    if kind == "poisson":
        count, eps1_min = Poisson(m), 0.0
    else:
        count, eps1_min = Binomial(n, p), _binomial_eps1_min(base, n, p)
    got = optimize_eps1(base, count, eps1_min)
    assert got.hex() == scalar_scan_optimize(base, count, eps1_min).hex()
    assert got == eps1_min


@SCANS
@given(st.one_of(st.floats(0.05, 100.0).map(gaussian_profile), pair_plds()),
       st.floats(-0.99, 30.0), st.floats(1e-12, 0.999) | st.floats(1e-300, 1e-6))
def test_negbin_crossing_is_no_worse_than_the_scan(base, eta, gamma):
    # x + r U is convex in x = e^eps on a Gaussian or Pld node, so the
    # eps1 where its slope 1 + r U' turns non-negative minimizes the shift
    count = TruncNegBinomial(eta, gamma)
    got = optimize_eps1(base, count)
    assert 0.0 <= got <= EPS1_CAP
    assert_no_worse_than_the_scan(base, count, got, scalar_scan_optimize(base, count))
    ratio = (1.0 - gamma) / gamma
    if 0.0 < got < EPS1_CAP:
        if isinstance(base, Pld):
            # the slope from the right is piecewise constant: it crosses
            # -1/r between got and the float below it
            assert 1.0 + ratio * base.slope(got) >= 0.0
            assert 1.0 + ratio * base.slope(math.nextafter(got, 0.0)) < 0.0
        else:
            # the Gaussian's slope is continuous, and -1/r at the crossing
            assert abs(1.0 + ratio * base.slope(got)) <= 1e-12


def test_a_flat_negbin_objective_on_points_takes_eps1_zero():
    # at gamma = 0.5 (ratio 1) x + U is flat below the first knot, so the
    # shift is flat there up to rounding.  The rule takes eps1 = 0, with
    # shift 0.5; the scan finds a float one ulp lower near 1.07e-6.
    # Either answer is sound; the rule's is an ulp looser
    base = profile_from_points([(0.5, 0.0), (710.0, 0.0)])
    count = TruncNegBinomial(0.0, 0.5)
    got, scanned = optimize_eps1(base, count), scalar_scan_optimize(base, count)
    assert got.hex() == "0x0.0p+0"
    assert count.shift(got, base(got)) == 0.5
    assert scanned.hex() == "0x1.1ebbb047e274ep-20"
    assert count.shift(scanned, base(scanned)) == 0.5 - math.ulp(0.5)


@SCANS
@given(point_lists(), st.sampled_from(("poisson", "binomial")), st.floats(0.1, 1000.0),
       st.integers(2, 200), st.floats(0.01, 0.99))
def test_poisson_and_binomial_on_points_take_the_threshold(points, kind, m, n, p):
    # a point list's slope in e^eps lies in [-1, 0] too, so the rule
    # answers with no search: 0 for Poisson, the threshold for binomial
    base = profile_from_points(points)
    if kind == "poisson":
        count, eps1_min = Poisson(m), 0.0
    else:
        count, eps1_min = Binomial(n, p), _binomial_eps1_min(base, n, p)
    assert optimize_eps1(base, count, eps1_min) == eps1_min


def test_a_negative_zero_knot_yields_a_positive_zero_eps1():
    # delta is 0 from eps = 0 on, so eps1 = 0 wins; the knot -0.0 is a
    # candidate beside 0.0
    rng = np.random.default_rng(0)
    for _ in range(4):
        base = profile_from_points([(-0.0, 0.0)] + [
            (e, 0.0) for e in rng.uniform(0.0, 1e-3, 500).tolist()])
        assert math.copysign(1.0, base.eps[0]) == -1.0
        for count in (TruncNegBinomial(1.0, 0.1), Poisson(3.0)):
            assert optimize_eps1(base, count).hex() == "0x0.0p+0"
            assert scalar_scan_optimize(base, count).hex() == "0x0.0p+0"


def test_exact_ties_go_to_the_smallest_eps1():
    # a flat base and a ratio so large that e^eps1 vanishes beside it:
    # every candidate below eps1 ~ 7.6 has the same shift, to the bit.
    # Weight eta + 1 = 2 and ratio (1 - gamma) / gamma = 1e20
    base = profile_from_points([(0.0, 0.3)])
    count = TruncNegBinomial(1.0, 1e-20)
    assert (1.0 - count.success) / count.success == 1e20
    assert count.shift(0.0, 0.3) == count.shift(7.0, 0.3)
    got = optimize_eps1(base, count)
    assert got == 0.0
    assert got.hex() == scalar_scan_optimize(base, count).hex()
