"""Preset parameter sets and table builders behind the comparison commands.

Each builder returns (header, rows) ready for CSV formatting.  The
presets pin every parameter so repeated runs emit identical bytes.

A cell is one `scenario.guarantee` call at DELTA_DEFAULT, and each table
builds its base once per method, through its own cache of
`scenario.build_base`.  Three columns have no `guarantee` method and
read their counts through `scenario.count`: fig2's eps_pointwise, fig4's
count CDFs and fig8 (`adjust`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import scenario
from ._search import gallop
# pld and gaussian load here, not on the first table, so `import
# privsel.presets` pays for them, and for scipy's compiled special
# functions (not the scipy.special package), before any table is timed
from .gaussian import gaussian_profile, gaussian_sigma_for_eps_delta
from .pld import (
    GridSpec,
    SubsampledGaussianParams,
    subsampled_gaussian_profile,
    # not called here; perfbench's tracer patches it through this binding
    subsampled_rdp_curve,  # noqa: F401
)
from .profiles import PointDP, epsilon_for_delta, rdp_profile
from .selection import (
    adjust_guarantee,
    bound_for_count,
    rdp_poisson_curve,
    select_negbin_pointwise,
)

DELTA_DEFAULT = 1e-6
# noise scale of the Gaussian base in fig1-fig4, and fig4's expected run count
GAUSSIAN_SIGMA = 4.0
FIG4_MEAN = 10.0
GAUSSIAN_BASE = {"kind": "gaussian", "sigma": GAUSSIAN_SIGMA}

FIG6_PARAMS = SubsampledGaussianParams(q=256 / 60000, sigma=1.1, steps=14063)
FIG6_BASE = {"kind": "subsampled_gaussian", **vars(FIG6_PARAMS)}
# the long composition amplifies residual discretization error, so this
# preset refines the default loss grid
FIG6_GRID = GridSpec(spacing=2.5e-5)
FIG7_PARAMS = SubsampledGaussianParams(q=16384 / 50000, sigma=21.1, steps=250)
FIG7_BASE = {"kind": "subsampled_gaussian", **vars(FIG7_PARAMS)}
# target eps for the max-candidate-count comparison; chosen inside the
# region where both the hockey-stick and Renyi curves are defined
FIG7_TARGET_EPS = 2.5

# largest step count the fig8 step search probes
FIG8_STEPS_CAP = 1 << 20


# rdp_curve_eps and rdp_poisson_eps are called by no table; perfbench's
# tracer patches them through these bindings
def rdp_curve_eps(curve, delta):
    """eps at delta for a Renyi curve, through the order-optimized conversion."""
    return epsilon_for_delta(rdp_profile(curve), delta)


def rdp_poisson_eps(base_rdp, m, delta):
    """eps at delta of the Poisson Renyi baseline, `rdp_poisson_curve`."""
    return rdp_curve_eps(rdp_poisson_curve(base_rdp, m), delta)


def _int_ladder(lo, hi, count):
    # sorted(set(...)), not np.unique, which loads numpy.ma
    return sorted({int(v) for v in np.round(np.geomspace(lo, hi, count))})


def _eps(base, family, method, build=scenario.build_base, grid_spacing=None):
    """The eps `guarantee` prints at DELTA_DEFAULT."""
    return scenario.guarantee(base, family, method, delta=DELTA_DEFAULT,
                              grid_spacing=grid_spacing, build=build)[0]


def fig1_table():
    """Noisy-argmax eps at fixed delta: profile inversion vs closed form."""
    rows = [(m, *(_eps(GAUSSIAN_BASE, {"kind": "rnm", "m": m}, method)
                  for method in ("hs", "closed")))
            for m in _int_ladder(1, 10_000, 25)]
    return ("m", "eps_hs", "eps_closed"), rows


def fig2_table():
    """Geometric-count tuning of a Gaussian base: hockey-stick bound vs
    the Renyi baseline vs the single-point closed form."""
    build = functools.cache(scenario.build_base)
    rows = []
    for m in (30, 300, 3000):
        family = {"kind": "negbin", "m": m}
        eps_hs, eps_rdp = (_eps(GAUSSIAN_BASE, family, method, build) for method in ("hs", "rdp"))
        delta_hat = DELTA_DEFAULT / m
        eps_hat = scenario.guarantee(GAUSSIAN_BASE, {}, "hs", delta=delta_hat, build=build)[0]
        count = scenario.count(family)
        point = select_negbin_pointwise(PointDP(eps_hat, delta_hat), count.shape, count.success)
        rows.append((m, eps_hs, eps_rdp, point.eps))
    return ("m", "eps_hs", "eps_rdp", "eps_pointwise"), rows


def fig3_table():
    """Growth of the tuned eps with the expected run count."""
    build = functools.cache(scenario.build_base)
    rows = [(m, *(_eps(GAUSSIAN_BASE, {"kind": "negbin", "m": m}, method, build)
                  for method in ("hs", "rdp", "closed")))
            for m in _int_ladder(10, 3000, 15)]
    return ("m", "eps_hs", "eps_rdp", "eps_gdp"), rows


FIG4_TRIALS = (15, 20, 50, 1000)


def fig4_tables():
    """Binomial-count profiles stepping toward the Poisson-count profile,
    plus the count CDF table that explains the ordering."""
    m = FIG4_MEAN
    build = functools.cache(scenario.build_base)
    families = [{"kind": "binomial", "n": n, "p": m / n} for n in FIG4_TRIALS]
    families.append({"kind": "poisson", "m": m})
    profiles = [scenario.resolve(GAUSSIAN_BASE, fam, "hs", build=build)[0]
                for fam in families]

    eps_grid = np.linspace(0.25, 5.0, 20)
    rows = [(float(e), *(p(float(e)) for p in profiles)) for e in eps_grid]
    header = ("eps", *(f"delta_n{n}" for n in FIG4_TRIALS), "delta_poisson")

    dists = [scenario.count(fam) for fam in families]
    krows = [(k, *(d.cdf(k) for d in dists)) for k in range(31)]
    kheader = ("k", *(f"cdf_n{n}" for n in FIG4_TRIALS), "cdf_poisson")
    return (header, rows), (kheader, krows)


def fig6_table(grid=None):
    """Tuned DP-SGD eps vs expected run count: hockey-stick bounds for
    geometric and Poisson counts against both Renyi baselines."""
    spacing = (grid or FIG6_GRID).spacing
    build = functools.cache(scenario.build_base)
    # the PLD, then the Renyi curve, before any cell reads either: built in
    # another order, they peak about 5 MB higher
    scenario.resolve(FIG6_BASE, {}, "hs", grid_spacing=spacing, build=build)
    scenario.resolve(FIG6_BASE, {}, "rdp", build=build)
    rows = []
    for m in _int_ladder(2, 1000, 15):
        families = ({"kind": "negbin", "m": m}, {"kind": "poisson", "m": m})
        rows.append((m, *(_eps(FIG6_BASE, fam, "hs", build, spacing) for fam in families),
                     *(_eps(FIG6_BASE, fam, "rdp", build) for fam in families)))
    return ("m", "eps_hs_negbin", "eps_hs_poisson", "eps_rdp_negbin",
            "eps_rdp_poisson"), rows


def fig7_table(grid=None):
    """Tuned eps vs expected run count for the large-batch DP-SGD setting."""
    build = functools.cache(scenario.build_base)
    rows = [(m, _eps(FIG7_BASE, {"kind": "negbin", "m": m}, "hs", build, grid and grid.spacing),
             _eps(FIG7_BASE, {"kind": "negbin", "m": m}, "rdp", build))
            for m in _int_ladder(2, 100_000, 21)]
    return ("m", "eps_hs_negbin", "eps_rdp_negbin"), rows


def _max_passing(ok, lo, cap):
    """Largest integer n in [lo, cap] with ok(n), for ok true up to some
    point and false after it; 0 when ok(lo) fails.  Probes lo, 2 lo,
    4 lo, ... while they pass, then bisects the last doubling."""
    if not ok(lo):
        return 0
    return gallop(lambda n: not ok(n), lo, 2 * lo, cap)[0]


def fig7_max_counts():
    """(hockey-stick max count, Renyi max count) at FIG7_TARGET_EPS."""
    build = functools.cache(scenario.build_base)

    def max_count(method):
        def ok(m):
            return _eps(FIG7_BASE, {"kind": "negbin", "m": m}, method, build) <= FIG7_TARGET_EPS
        return _max_passing(ok, 2, 10**12)

    return max_count("hs"), max_count("rdp")


def fig8_adjust_table(q=0.01, eps_q=1.5, delta=DELTA_DEFAULT, m=10.0, eta=1.0,
                      sigmas=(2.0, 3.0, 4.0), grid=None):
    """Per noise candidate: the largest step count whose composed profile
    stays inside both thresholds read off the target guarantee, the final
    adjusted guarantee, and the directly optimized bound for gap reporting.
    """
    count = scenario.count({"kind": "negbin", "eta": eta, "m": m})
    target = gaussian_profile(gaussian_sigma_for_eps_delta(eps_q, delta), 1.0)
    eps1 = bound_for_count(target, count).eps1
    delta1 = target(eps1)
    eps_hat = epsilon_for_delta(target, delta / m)
    final = adjust_guarantee(eps1, delta1, eps_hat, eta, count.success, delta)

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
        eps_direct = epsilon_for_delta(bound_for_count(passed, count).profile, delta)
        # a tiny q can leave the direct bound at eps = 0
        gap = final.eps / eps_direct - 1.0 if eps_direct else math.inf
        rows.append((sigma, max_steps, final.eps, final.delta, eps_direct, gap))
    return ("sigma", "max_steps", "eps_final", "delta_final", "eps_direct",
            "gap_rel"), rows
