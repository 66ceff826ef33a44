"""Preset parameter sets and table builders behind the comparison commands.

Each builder returns (header, rows) ready for CSV formatting.  The
presets pin every parameter so repeated runs emit identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .countdist import Binomial, Poisson, from_expected
from .errors import EmptyCurveError
from .gaussian import gaussian_profile, gaussian_sigma_for_eps_delta
from .pld import (
    GridSpec,
    SubsampledGaussianParams,
    subsampled_gaussian_profile,
    subsampled_rdp_curve,
)
from .profiles import (
    PointDP,
    epsilon_for_delta,
    gaussian_rdp_curve,
    rdp_profile,
    rdp_to_dp,
)
from .rnm import rnm_gaussian_eps, rnm_profile
from .selection import (
    adjust_guarantee,
    negbin_penalty,
    optimize_eps1,
    rdp_select_negbin,
    rdp_select_poisson,
    select_binomial_profile,
    select_gdp_eps,
    select_negbin_pointwise,
    select_negbin_profile,
    select_poisson_profile,
)

DELTA_DEFAULT = 1e-6
# noise scale of the Gaussian base in fig1-fig4, and fig4's expected run count
GAUSSIAN_SIGMA = 4.0
FIG4_MEAN = 10.0

FIG6_PARAMS = SubsampledGaussianParams(q=256 / 60000, sigma=1.1, steps=14063)
# the long composition amplifies residual discretization error, so this
# preset refines the default loss grid
FIG6_GRID = GridSpec(spacing=2.5e-5)
FIG7_PARAMS = SubsampledGaussianParams(q=16384 / 50000, sigma=21.1, steps=250)
# target eps for the max-candidate-count comparison; chosen inside the
# region where both the hockey-stick and Renyi curves are defined
FIG7_TARGET_EPS = 2.5

# largest step count the fig8 step search probes
FIG8_STEPS_CAP = 1 << 20


def rdp_curve_eps(curve, delta):
    """eps at delta for a Renyi curve, through the order-optimized conversion."""
    return epsilon_for_delta(rdp_profile(curve), delta)


def rdp_poisson_eps(base_rdp, m, delta):
    """Best final eps over the base-point grid for the Poisson Renyi bound.

    The bound needs the base stated as a single (eps, delta) point; each
    of 40 candidate points is read off the base curve and the cheapest
    final guarantee wins.
    """
    best = math.inf
    for eps_hat in np.geomspace(1e-3, 2.0, 40):
        point = PointDP(float(eps_hat), rdp_to_dp(base_rdp, float(eps_hat)))
        try:
            curve = rdp_select_poisson(base_rdp, point, m)
        except EmptyCurveError:
            continue
        best = min(best, rdp_curve_eps(curve, delta))
    return best


def _int_ladder(lo, hi, count):
    return [int(v) for v in np.unique(np.round(np.geomspace(lo, hi, count)))]


def _geometric_eps(base, base_rdp, m):
    """(hockey-stick eps, Renyi eps) at DELTA_DEFAULT for a geometric run
    count with mean m."""
    gamma = 1.0 / m
    eps_hs = epsilon_for_delta(select_negbin_profile(base, 1.0, gamma).profile,
                               DELTA_DEFAULT)
    eps_rdp = rdp_curve_eps(rdp_select_negbin(base_rdp, 1.0, gamma), DELTA_DEFAULT)
    return eps_hs, eps_rdp


def fig1_table():
    """Noisy-argmax eps at fixed delta: profile inversion vs closed form."""
    base = gaussian_profile(GAUSSIAN_SIGMA, 2.0)
    rows = []
    for m in _int_ladder(1, 10_000, 25):
        eps_hs = epsilon_for_delta(rnm_profile(base, m), DELTA_DEFAULT)
        eps_cf = rnm_gaussian_eps(GAUSSIAN_SIGMA, m, DELTA_DEFAULT)
        rows.append((m, eps_hs, eps_cf))
    return ("m", "eps_hs", "eps_closed"), rows


def fig2_table():
    """Geometric-count tuning of a Gaussian base: hockey-stick bound vs
    the Renyi baseline vs the single-point closed form."""
    base = gaussian_profile(GAUSSIAN_SIGMA, 1.0)
    base_rdp = gaussian_rdp_curve(GAUSSIAN_SIGMA, 1.0)
    rows = []
    for m in (30, 300, 3000):
        eps_hs, eps_rdp = _geometric_eps(base, base_rdp, m)
        delta_hat = DELTA_DEFAULT / m
        eps_hat = epsilon_for_delta(base, delta_hat)
        point = select_negbin_pointwise(PointDP(eps_hat, delta_hat), 1.0, 1.0 / m)
        rows.append((m, eps_hs, eps_rdp, point.eps))
    return ("m", "eps_hs", "eps_rdp", "eps_pointwise"), rows


def fig3_table():
    """Growth of the tuned eps with the expected run count."""
    base = gaussian_profile(GAUSSIAN_SIGMA, 1.0)
    base_rdp = gaussian_rdp_curve(GAUSSIAN_SIGMA, 1.0)
    rows = []
    for m in _int_ladder(10, 3000, 15):
        eps_hs, eps_rdp = _geometric_eps(base, base_rdp, m)
        eps_gdp = select_gdp_eps(GAUSSIAN_SIGMA, 1.0, 1.0 / m, DELTA_DEFAULT)
        rows.append((m, eps_hs, eps_rdp, eps_gdp))
    return ("m", "eps_hs", "eps_rdp", "eps_gdp"), rows


FIG4_TRIALS = (15, 20, 50, 1000)


def fig4_tables():
    """Binomial-count profiles stepping toward the Poisson-count profile,
    plus the count CDF table that explains the ordering."""
    m = FIG4_MEAN
    base = gaussian_profile(GAUSSIAN_SIGMA, 1.0)
    profiles = [
        select_binomial_profile(base, n, m / n).profile for n in FIG4_TRIALS
    ]
    profiles.append(select_poisson_profile(base, m).profile)

    eps_grid = np.linspace(0.25, 5.0, 20)
    rows = [(float(e), *(p(float(e)) for p in profiles)) for e in eps_grid]
    header = ("eps", *(f"delta_n{n}" for n in FIG4_TRIALS), "delta_poisson")

    dists = [Binomial(n, m / n) for n in FIG4_TRIALS]
    dists.append(Poisson(m))
    krows = [(k, *(d.cdf(k) for d in dists)) for k in range(31)]
    kheader = ("k", *(f"cdf_n{n}" for n in FIG4_TRIALS), "cdf_poisson")
    return (header, rows), (kheader, krows)


def fig6_table(grid=None):
    """Tuned DP-SGD eps vs expected run count: hockey-stick bounds for
    geometric and Poisson counts against both Renyi baselines."""
    base = subsampled_gaussian_profile(FIG6_PARAMS, grid or FIG6_GRID)
    base_rdp = subsampled_rdp_curve(FIG6_PARAMS)
    rows = []
    for m in _int_ladder(2, 1000, 15):
        eps_hs_nb, eps_rdp_nb = _geometric_eps(base, base_rdp, m)
        eps_hs_po = epsilon_for_delta(
            select_poisson_profile(base, float(m)).profile, DELTA_DEFAULT
        )
        eps_rdp_po = rdp_poisson_eps(base_rdp, float(m), DELTA_DEFAULT)
        rows.append((m, eps_hs_nb, eps_hs_po, eps_rdp_nb, eps_rdp_po))
    return ("m", "eps_hs_negbin", "eps_hs_poisson", "eps_rdp_negbin",
            "eps_rdp_poisson"), rows


def fig7_table(grid=None):
    """Tuned eps vs expected run count for the large-batch DP-SGD setting."""
    base = subsampled_gaussian_profile(FIG7_PARAMS, grid)
    base_rdp = subsampled_rdp_curve(FIG7_PARAMS)
    rows = []
    for m in _int_ladder(2, 100_000, 21):
        rows.append((m, *_geometric_eps(base, base_rdp, m)))
    return ("m", "eps_hs_negbin", "eps_rdp_negbin"), rows


def _max_passing(ok, lo, cap):
    """Largest integer n in [lo, cap] with ok(n), for ok true up to some
    point and false after it; 0 when ok(lo) fails.  Probes lo, 2 lo,
    4 lo, ... while they pass, then bisects the last doubling."""
    if not ok(lo):
        return 0
    hi = 2 * lo
    while hi <= cap and ok(hi):
        lo, hi = hi, 2 * hi
    if hi > cap:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def fig7_max_counts():
    """(hockey-stick max count, Renyi max count) at FIG7_TARGET_EPS."""
    base = subsampled_gaussian_profile(FIG7_PARAMS)
    base_rdp = subsampled_rdp_curve(FIG7_PARAMS)

    def hs_ok(m):
        return epsilon_for_delta(
            select_negbin_profile(base, 1.0, 1.0 / m).profile, DELTA_DEFAULT
        ) <= FIG7_TARGET_EPS

    def rdp_ok(m):
        return rdp_curve_eps(rdp_select_negbin(base_rdp, 1.0, 1.0 / m),
                             DELTA_DEFAULT) <= FIG7_TARGET_EPS

    return _max_passing(hs_ok, 2, 10**12), _max_passing(rdp_ok, 2, 10**12)


def fig8_adjust_table(q=0.01, eps_q=1.5, delta=DELTA_DEFAULT, m=10.0, eta=1.0,
                      sigmas=(2.0, 3.0, 4.0), grid=None):
    """Per noise candidate: the largest step count whose composed profile
    stays inside both thresholds read off the target guarantee, the final
    adjusted guarantee, and the directly optimized bound for gap reporting.
    """
    gamma = from_expected("negbin", m, shape=eta).success
    target = gaussian_profile(gaussian_sigma_for_eps_delta(eps_q, delta), 1.0)
    eps1 = optimize_eps1(target, negbin_penalty(eta, gamma))
    delta1 = target(eps1)
    eps_hat = epsilon_for_delta(target, delta / m)
    final = adjust_guarantee(eps1, delta1, eps_hat, eta, gamma, delta)

    rows = []
    for sigma in sigmas:
        # each probe that _max_passing sees pass lies above every earlier
        # one, and the count it returns is its last passing probe, so the
        # direct row reads that probe's profile instead of composing again
        passed = None

        def ok(steps):
            nonlocal passed
            prof = subsampled_gaussian_profile(
                SubsampledGaussianParams(q, sigma, steps), grid
            )
            if prof(eps1) <= delta1 and prof(eps_hat) <= delta / m:
                passed = prof
                return True
            return False

        max_steps = _max_passing(ok, 1, FIG8_STEPS_CAP)
        if max_steps == 0:
            rows.append((sigma, 0, math.nan, delta, math.nan, math.nan))
            continue
        direct = select_negbin_profile(passed, eta, gamma)
        eps_direct = epsilon_for_delta(direct.profile, delta)
        gap = final.eps / eps_direct - 1.0
        rows.append((sigma, max_steps, final.eps, final.delta, eps_direct, gap))
    return ("sigma", "max_steps", "eps_final", "delta_final", "eps_direct",
            "gap_rel"), rows
