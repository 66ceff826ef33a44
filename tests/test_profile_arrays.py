"""Array evaluation of every profile node against its scalar form.

Each node (Gaussian, Points, Scaled, Renyi, Pld, and one that defines
only its scalar form) evaluated over an array of eps must give exactly
the floats its scalar evaluator gives one eps at a time, and refuse a NaN
the same way.  `optimize_eps1` must choose the same eps1 as a scan that
calls the base and the count's shift once per candidate, and build the
same candidate grid as `np.geomspace`; where it settles eps1 without the
scan, the base nodes' slope in e^eps, the rules' premise, is checked too,
and the rule's shift is bounded by the scan's: on a point list, and for
a negbin count at the slope's crossing on Gaussian and Pld bases.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privsel.countdist import Binomial, Poisson, TruncNegBinomial
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
    Points,
    PrivacyProfile,
    Scaled,
    clip_delta,
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
    _binomial_eps1_min,
    _eps_hi,
    _grid,
    _sorted_unique,
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
    # a long point list through the default array form, an _at call per
    # entry, with and without a point past e^eps's overflow
    pts = [(0.01 * i, 0.5 / (1 + i)) for i in range(700)]
    eps = np.linspace(-1.0, 8.0, 400)
    for tail in ([], [(800.0, 0.0)]):
        prof = profile_from_points(pts + tail)
        assert array_values(prof, eps) == scalar_values(prof, eps)


class Cone(PrivacyProfile):
    """A node that defines only `_at`: the one-point cone (e - e^eps)_+."""

    def _at(self, eps):
        if eps != eps:
            raise ValueError("the cone is undefined at NaN")
        return clip_delta(math.e - math.exp(min(eps, 1.0)))


@PROPS
@given(eps_arrays)
def test_default_array_form_is_the_scalar_form_per_entry(eps):
    assert array_values(Cone(), eps) == scalar_values(Cone(), eps)


def test_default_array_form_keeps_shape_and_refuses_nan_as_the_node_does():
    assert array_values(Cone(), np.array([])) == []
    with pytest.raises(ValueError, match="the cone is undefined at NaN"):
        Cone().on_array(np.array([0.5, math.nan]))


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


def scalar_scan_optimize(base, count, eps1_min=0.0):
    """optimize_eps1 as it was before array evaluation: one scalar base
    call per candidate, then the same golden-section refinement.  An
    eps1 below eps1_min scores +inf."""
    try:
        eps_hi = min(epsilon_for_delta(base, 1e-15), EPS1_CAP)
    except UnreachableTargetError:
        eps_hi = EPS1_CAP
    eps_hi = max(eps_hi, 1e-3)
    cand = [0.0]
    cand.extend(np.geomspace(GRID_LO, eps_hi, GRID_POINTS))
    cand.extend(k for k in base.knots if 0.0 <= k <= eps_hi)
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


@pytest.mark.parametrize("count", [
    *map(Poisson, (0.1, 3.0, 1e3, 1e300)),
    *(TruncNegBinomial(eta, gamma) for eta, gamma in
      ((-0.9, 0.9), (0.0, 0.5), (3.0, 1e-4), (1.0, 1e-300))),
    Binomial(2, 0.01), Binomial(200, 0.99), Binomial(10**6, 0.5),
], ids=repr)
def test_penalty_array_form_tracks_the_scalar_form(count):
    # the bound optimize_eps1's pruning window rests on, and no warning
    # (an error under this suite) where the scalar form is +inf
    e1 = np.concatenate(([0.0], np.geomspace(GRID_LO, EPS1_CAP, GRID_POINTS)))
    for d1 in (0.0, 1e-15, 1e-6, 0.3, 1.0):
        got = count.shifts(e1, np.full(len(e1), d1))
        want = np.array([count.shift(e, d1) for e in e1.tolist()])
        weight = count.shape + 1.0 if isinstance(count, TruncNegBinomial) else 0.0
        assert (np.isinf(got) == np.isinf(want)).all()
        fin = np.isfinite(want)
        assert (abs(got[fin] - want[fin]) <= 1e-14 * want[fin] + weight * 1e-15).all()


def shift_rounding(count, e1, d1):
    """A bound on how far count.shift(e1, d1) lies from the exact Poisson
    or binomial shift at e1, for d1 a point list's value there.

    Below 1 that value is a delta_i plus e^eps_i - e^e1 with e^eps_i at
    most e^e1 + 1 (or, past e^709, e^e1 expm1(eps_i - e1) at most 1):
    two exponentials, a difference and a sum, or two functions, a product
    and a sum, each within an ulp of 2 max(1, e^e1), so d1 lies within
    u = 4 ulps of that of the exact value, and expm1(e1) within one.  A
    Poisson shift m expm1(e1) + m d1 then carries m times both, plus its
    own three roundings.  A binomial shift (n - 1) log1p(a) with a =
    p expm1(e1) + p d1 carries p times both and three roundings in a,
    which log1p divides by 1 + a, plus an ulp of log1p and a rounding of
    the product."""
    u = 4 * math.ulp(2 * max(1.0, math.exp(e1)))
    shift = count.shift(e1, d1)
    if isinstance(count, Poisson):
        return count.rate * 2 * u + 3 * math.ulp(shift)
    a = count.prob * math.expm1(e1) + count.prob * d1
    da = count.prob * 2 * u + 3 * math.ulp(a)
    log_err = da / (1.0 + a - da) + math.ulp(math.log1p(a))
    return (count.trials - 1.0) * log_err + math.ulp(shift)


@SCANS
@given(bases, counts())
# the points bottom out at eps = 0.001, below the drawn threshold
@example(profile_from_points([(0.001, 1e-16)]), (Binomial(2, 0.5), 0.01))
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
    elif isinstance(base, Points) and not isinstance(count, TruncNegBinomial):
        # the slope rule takes the threshold, where the scan picks a float
        # on a shift flat up to rounding: in exact arithmetic the rule's
        # shift is at most the scan's
        assert got == eps1_min
        d_got, d_want = base(got), base(want)
        assert count.shift(got, d_got) <= count.shift(want, d_want) + (
            shift_rounding(count, got, d_got) + shift_rounding(count, want, d_want))
    elif isinstance(count, TruncNegBinomial) and not isinstance(base, Points):
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
    assert base.lipschitz_in_exp
    eps = np.unique(np.concatenate([eps, [k for k in base.knots if k <= 700.0]]))
    x = np.array([math.exp(e) for e in eps.tolist()])
    du = np.diff(base.on_array(eps))
    assert (du <= 2 * np.spacing(1.0)).all()
    assert (du + np.diff(x) >= -4 * np.spacing(np.maximum(1.0, x[1:]))).all()


def test_other_nodes_make_no_slope_claim():
    # a Scaled node falls at factor times its base's slope, and a Renyi
    # conversion is no hockey-stick curve: both keep the search
    curve = gaussian_rdp_curve(4.0)
    for node in (rdp_profile(curve), Scaled(gaussian_profile(4.0), 30.0, 0.7)):
        assert not node.lipschitz_in_exp


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


def test_grid_is_geomspace_bit_for_bit():
    rng = np.random.default_rng(7)
    lo, hi = math.log(1e-3), math.log(EPS1_CAP)
    for eps_hi in [1e-3, EPS1_CAP, *np.exp(rng.uniform(lo, hi, 500)).tolist(),
                   *rng.uniform(1e-3, EPS1_CAP, 500).tolist()]:
        want = np.geomspace(GRID_LO, eps_hi, GRID_POINTS)
        assert _grid(eps_hi).tobytes() == want.tobytes(), eps_hi


# few distinct values, so that most arrays repeat some, and both zeros
dedupe_arrays = st.lists(
    st.sampled_from([0.0, -0.0, 1e-300, 1e-6, 0.5, 0.5000000000000001, 2.0, EPS1_CAP])
    | st.floats(0.0, EPS1_CAP),
    min_size=1, max_size=300).map(np.array)


@PROPS
@given(dedupe_arrays)
def test_sorted_unique_is_np_unique_plus_zero(x):
    want = [v.hex() for v in (np.unique(x) + 0.0).tolist()]
    assert [v.hex() for v in _sorted_unique(x).tolist()] == want


@pytest.mark.parametrize("x", [[-0.0], [0.0], [0.5], [-0.0, 0.0], [0.0, -0.0, -0.0],
                               [1.0, -0.0, 1.0, 0.0, 1.0]])
def test_sorted_unique_on_zeros_and_single_entries(x):
    want = [v.hex() for v in (np.unique(x) + 0.0).tolist()]
    assert [v.hex() for v in _sorted_unique(np.array(x)).tolist()] == want


def test_a_negative_zero_knot_yields_a_positive_zero_eps1():
    # delta is 0 from eps = 0 on, so eps1 = 0 wins; with this many knots
    # the candidates' sort may keep the knot -0.0 over 0.0
    rng = np.random.default_rng(0)
    for _ in range(4):
        base = profile_from_points([(-0.0, 0.0)] + [
            (e, 0.0) for e in rng.uniform(0.0, 1e-3, 500).tolist()])
        assert math.copysign(1.0, base.knots[0]) == -1.0
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


@pytest.mark.parametrize("e0", [0.1, 0.3, 0.5, 0.7, 1.0, 2.0])
def test_rounding_level_ties_are_settled_by_the_scalar_form(e0):
    # below e0 the base is e^e0 - e^eps1, so a Poisson shift m (e^e0 - 1)
    # and a negbin shift with ratio 1 (gamma = 0.5), weight w = eta + 1,
    # w e0, are flat in exact arithmetic; the candidates then differ only
    # by rounding, where numpy's expm1 and exp differ from math's.  The
    # point list itself never reaches the scan; the Scaled node over it
    # makes no slope claim, and has its values at every candidate
    points = profile_from_points([(e0, 0.0)])
    base = Scaled(points, 1.0)
    cand = _sorted_unique(np.concatenate(([0.0], _grid(_eps_hi(base, 0.0)), base.knots)))
    assert array_values(base, cand) == scalar_values(points, cand)
    for count in [*map(Poisson, (0.5, 1.0, 3.0, 7.0, 10.0, 100.0)),
                  *(TruncNegBinomial(w - 1.0, 0.5) for w in (1.0, 2.0, 3.5))]:
        got = optimize_eps1(base, count)
        assert got.hex() == scalar_scan_optimize(base, count).hex()

