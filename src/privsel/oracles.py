"""Independent quadrature and sampling oracles.

Everything here recomputes divergences from density definitions alone,
never through the analytic bounds, so agreement between the two paths is
meaningful evidence.  Shapes are restricted to Gaussians and two-component
Gaussian mixtures, which have accurate closed-form CDFs and cover every
scenario the bounds are tested on.

`oracle_checks` is the validation table `privsel oracle` prints: each
row sets a bound against these oracles.  Only that function reads the
bounds, importing them where it reads them, and it builds each selection
bound as `guarantee` does, from a base spec `scenario` reads.

`quad` and `brentq` behave as scipy's public functions of those names,
on the compiled quadpack and Brent routines that `_special` loads without
the `scipy.integrate` and `scipy.optimize` packages (about 0.15 s of
start-up); where those extensions are missing they are the public
functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import load_extension, ndtr
from .countdist import Binomial, Poisson, TruncNegBinomial

QUAD_REL_TOL = 1e-12
MC_SEED = 947151  # fixed so every summary is bitwise reproducible
_SCAN_POINTS = 4097

_qagse = getattr(load_extension("integrate", "_quadpack"), "_qagse", None)
_brentq = getattr(load_extension("optimize", "_zeros"), "_brentq", None)


class IntegrationWarning(UserWarning):
    """quadpack stopped short of the requested tolerance."""


if _qagse is None:
    from scipy.integrate import quad
else:
    def quad(func, a, b, *, epsabs, epsrel, limit):
        """`scipy.integrate.quad` on a finite interval: (value, error
        estimate), warning where quadpack stops short of the tolerance and
        raising on invalid input."""
        value, error, ier = _qagse(func, a, b, (), 0, epsabs, epsrel, limit)
        if ier in (1, 2, 3, 4, 5, 7):
            warnings.warn(f"quadpack stopped with ier={ier} on [{a}, {b}]",
                          IntegrationWarning, stacklevel=2)
        elif ier != 0:
            raise ValueError(f"quadpack refused its input (ier={ier}, limit={limit})")
        return value, error

if _brentq is None:
    from scipy.optimize import brentq
else:
    def brentq(f, a, b, *, xtol, rtol):
        """`scipy.optimize.brentq`: a root of f in [a, b], whose ends f must
        give opposite signs; a NaN value of f raises ValueError."""

        def checked(x):
            fx = f(x)
            if math.isnan(fx):
                raise ValueError(f"the function value at x={x} is NaN")
            return fx

        return _brentq(checked, a, b, xtol, rtol, 100, (), False, True)


@dataclass(frozen=True)
class DensityPair:
    """Two 1-d densities on a shared window, with optional CDFs; each
    takes a float or an array of points."""

    pdf_p: Callable
    pdf_q: Callable
    lo: float
    hi: float
    cdf_p: Optional[Callable] = None
    cdf_q: Optional[Callable] = None

    def swapped(self):
        return DensityPair(self.pdf_q, self.pdf_p, self.lo, self.hi, self.cdf_q, self.cdf_p)


def _norm_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))


def gaussian_pair(mu_p, mu_q, sigma):
    """Pair N(mu_p, sigma^2) vs N(mu_q, sigma^2)."""
    lo = min(mu_p, mu_q) - 10 * sigma
    hi = max(mu_p, mu_q) + 10 * sigma
    return DensityPair(
        lambda x: _norm_pdf(x, mu_p, sigma),
        lambda x: _norm_pdf(x, mu_q, sigma),
        lo,
        hi,
        lambda x: ndtr((x - mu_p) / sigma),
        lambda x: ndtr((x - mu_q) / sigma),
    )


def subsampled_gaussian_pair(q, sigma, direction="remove"):
    """Dominating pair of the Poisson-subsampled Gaussian mechanism.

    remove: (1-q) N(0,s^2) + q N(1,s^2) against N(0,s^2); add is the same
    pair with the roles exchanged.
    """

    def mix_pdf(x):
        return (1 - q) * _norm_pdf(x, 0, sigma) + q * _norm_pdf(x, 1, sigma)

    def mix_cdf(x):
        return (1 - q) * ndtr(x / sigma) + q * ndtr((x - 1) / sigma)

    def ref_pdf(x):
        return _norm_pdf(x, 0, sigma)

    def ref_cdf(x):
        return ndtr(x / sigma)

    remove = DensityPair(mix_pdf, ref_pdf, -10 * sigma, 1 + 10 * sigma, mix_cdf, ref_cdf)
    if direction == "remove":
        return remove
    if direction == "add":
        return remove.swapped()
    raise ValueError(f"direction must be add or remove, got {direction!r}")


def pair_normalization(pair):
    """Integral of each density over the window; both should be 1 within 1e-10."""
    ip = quad(pair.pdf_p, pair.lo, pair.hi, epsabs=1e-14, epsrel=QUAD_REL_TOL, limit=200)[0]
    iq = quad(pair.pdf_q, pair.lo, pair.hi, epsabs=1e-14, epsrel=QUAD_REL_TOL, limit=200)[0]
    return ip, iq


def _positive_part_integral(f, lo, hi):
    """Integral of max(f, 0) over [lo, hi].

    The integrand of a hockey-stick divergence has kinks where f changes
    sign, so sign changes are located first (grid scan plus root find) and
    each positive piece is integrated as a smooth function.  f takes a
    float or an array: the scan evaluates it once on the whole grid, and
    only decides the brackets, so roots and pieces come from scalar calls.
    A NaN anywhere on the grid raises ValueError rather than reading as 0.
    """
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    vals = f(xs)
    if np.isnan(vals).any():
        raise ValueError(f"integrand is NaN on the scan of [{lo}, {hi}]")
    pos = vals > 0
    edges = [lo]
    for i in np.flatnonzero(pos[:-1] != pos[1:]):
        try:
            root = brentq(f, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16)
        except ValueError:
            root = 0.5 * (xs[i] + xs[i + 1])
        edges.append(root)
    edges.append(hi)

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            total += quad(f, a, b, epsabs=1e-15, epsrel=QUAD_REL_TOL, limit=300)[0]
    return max(0.0, total)


def hs_divergence_quadrature(pair, eps):
    """Hockey-stick divergence of the pair at e^eps, straight from densities."""
    ee = math.exp(eps)

    def f(x):
        return pair.pdf_p(x) - ee * pair.pdf_q(x)

    return _positive_part_integral(f, pair.lo, pair.hi)


def argmax_probabilities(means, sigma):
    """P(argmax_i of means_i + N(0, sigma^2) = i) for each coordinate."""
    means = np.asarray(means, dtype=float)
    m = len(means)
    lo = float(means.min()) - 10 * sigma
    hi = float(means.max()) + 10 * sigma
    probs = np.empty(m)
    for i in range(m):
        others = np.delete(means, i)

        def integrand(t):
            return _norm_pdf(t, means[i], sigma) * np.prod(ndtr((t - others) / sigma))

        probs[i] = quad(integrand, lo, hi, epsabs=1e-14, epsrel=QUAD_REL_TOL, limit=300)[0]
    return probs


def rnm_exact_divergence(mu, mu_prime, sigma, eps):
    """Exact hockey-stick divergence of the noisy-argmax output distribution
    on a fixed pair of query-mean vectors (at most 8 candidates)."""
    return rnm_exact_divergences(mu, mu_prime, sigma, [eps])[0]


def rnm_exact_divergences(mu, mu_prime, sigma, epses):
    """`rnm_exact_divergence` at each eps of epses, from one pair of
    argmax-probability vectors."""
    mu = np.asarray(mu, dtype=float)
    mu_prime = np.asarray(mu_prime, dtype=float)
    if mu.shape != mu_prime.shape or not 2 <= len(mu) <= 8:
        raise ValueError("need matching mean vectors with 2..8 entries")
    if not (np.isfinite(mu).all() and np.isfinite(mu_prime).all()
            and all(map(math.isfinite, epses)) and math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"need finite means and eps and a finite positive sigma, "
                         f"got sigma={sigma}, eps={', '.join(map(str, epses))}")
    if np.max(np.abs(mu - mu_prime)) > 1 + 1e-12:
        raise ValueError("per-query sensitivity exceeds 1")
    p = argmax_probabilities(mu, sigma)
    p_prime = argmax_probabilities(mu_prime, sigma)
    return [float(np.sum(np.maximum(p - math.exp(eps) * p_prime, 0.0))) for eps in epses]


def _pgf_deriv_at(dist, cdf, y):
    """dist.pgf_deriv at cdf(y): on the array for an array y, and on a
    Python float for a scalar y, as the scalar integrand always had it."""
    c = cdf(y)
    return dist.pgf_deriv(c if isinstance(y, np.ndarray) else float(c))


def selection_exact_divergence(pair, dist, eps):
    """Exact divergence of the best-of-K selection output on a fixed base pair.

    The selection output density is base density times pgf_deriv at the
    base CDF; for count distributions with mass at K=0 the formula drops
    the empty-run atom, which is harmless only at eps > 0.
    """
    if pair.cdf_p is None or pair.cdf_q is None:
        raise ValueError("selection oracle needs CDFs on the base pair")
    if dist.pmf(0) > 0 and eps <= 0:
        raise ValueError("count distributions with mass at 0 need eps > 0")
    ee = math.exp(eps)

    def f(y):
        a = pair.pdf_p(y) * _pgf_deriv_at(dist, pair.cdf_p, y)
        b = pair.pdf_q(y) * _pgf_deriv_at(dist, pair.cdf_q, y)
        return a - ee * b

    return _positive_part_integral(f, pair.lo, pair.hi)


def selection_mean_quadrature(pair, dist):
    """E[best score] (empty runs contributing zero) under the numerator density."""

    def g(y):
        return y * pair.pdf_p(y) * dist.pgf_deriv(float(pair.cdf_p(y)))

    return quad(g, pair.lo, pair.hi, epsabs=1e-12, epsrel=1e-10, limit=300)[0]


@dataclass(frozen=True)
class McSelectionSummary:
    """Empirical best-of-K statistics; best is nan where K drew 0."""

    best: np.ndarray
    trials: int

    def empty_fraction(self):
        return float(np.isnan(self.best).mean())

    def mean_best(self):
        """Mean best score across all trials, an empty draw counting as 0;
        comparable to the quadrature of y times the output density."""
        return float(np.nansum(self.best) / self.trials)

    def cdf(self, y):
        """Empirical P(best <= y and K >= 1)."""
        return float(np.sum(self.best <= y) / self.trials)

    @staticmethod
    def ci_radius(p, trials):
        return 3 * math.sqrt(p * (1 - p) / trials)


def mc_selection_sample(base_sampler, dist, trials, seed=MC_SEED):
    """Monte Carlo best-of-K draw: sample K, then the max of K base samples.

    base_sampler(rng, size) must return that many base scores.  The count
    is drawn by inverse CDF on a pmf table truncated at the far tail.
    """
    if trials < 10**5:
        raise ValueError("need at least 1e5 trials for a meaningful summary")
    rng = np.random.default_rng(seed)
    k0 = 1 if dist.pmf(0) == 0 else 0
    k_hi = dist.support_upper(1e-12)
    table = np.cumsum(dist.pmf(np.arange(k0, k_hi + 1)))
    table[-1] = max(table[-1], 1.0)
    counts = np.searchsorted(table, rng.random(trials)) + k0
    total = int(counts.sum())
    scores = np.asarray(base_sampler(rng, total), dtype=float)
    best = np.full(trials, np.nan)
    nonzero = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    best[nonzero] = np.maximum.reduceat(scores, starts[nonzero])
    return McSelectionSummary(best=best, trials=trials)


# Shared validation scenarios: a base in `scenario`'s base-spec form plus
# a count distribution.  `oracle_checks` checks each one's analytic bound,
# the one `guarantee` builds.
SELECTION_INSTANCES = (
    ("gaussian sigma=4, geometric count",
     {"kind": "gaussian", "sigma": 4.0}, TruncNegBinomial(1.0, 0.1)),
    ("gaussian sigma=4, log-series count",
     {"kind": "gaussian", "sigma": 4.0}, TruncNegBinomial(0.0, 0.05)),
    ("gaussian sigma=2, shape-2 count",
     {"kind": "gaussian", "sigma": 2.0}, TruncNegBinomial(2.0, 0.3)),
    ("gaussian sigma=4, binomial count",
     {"kind": "gaussian", "sigma": 4.0}, Binomial(50, 0.2)),
    ("gaussian sigma=4, poisson count",
     {"kind": "gaussian", "sigma": 4.0}, Poisson(10.0)),
    ("subsampled q=0.2 sigma=2, geometric count",
     {"kind": "subsampled_gaussian", "q": 0.2, "sigma": 2.0},
     TruncNegBinomial(1.0, 0.2)),
)


def instance_pair(spec):
    """Dominating pair of a one-step gaussian or subsampled_gaussian base
    spec read by `scenario.base_params`, moving by 1 at sigma / sensitivity."""
    from .scenario import base_params
    kind, params = base_params(spec)
    if kind == "gaussian":
        sigma, sens = params
        return gaussian_pair(0.0, sens, sigma)
    if kind == "subsampled_gaussian" and params[2] == 1:
        q, ratio, _ = params
        return subsampled_gaussian_pair(q, ratio, "remove")
    raise ValueError(f"no density pair for a composed or non-gaussian base {spec!r}")


def oracle_checks():
    """The rows of `privsel oracle`: (name, passed, detail) of each check."""
    from . import scenario, selection
    from .gaussian import gaussian_profile

    checks = []
    pair = gaussian_pair(0.0, 1.0, 4.0)
    prof = gaussian_profile(4.0, 1.0)
    worst = max(abs(hs_divergence_quadrature(pair, e) - prof(e))
                for e in (0.0, 0.5, 1.0, 2.0))
    checks.append(("gaussian profile vs quadrature", worst < 1e-10,
                   f"max abs diff {worst:.2e}"))

    tv_gap = abs(hs_divergence_quadrature(pair, 0.0)
                 - hs_divergence_quadrature(pair.swapped(), 0.0))
    checks.append(("total variation direction symmetry", tv_gap < 1e-10,
                   f"gap {tv_gap:.2e}"))

    probs = argmax_probabilities(np.array([0.0, 0.5, 1.0]), 1.0)
    gap = abs(float(np.sum(probs)) - 1.0)
    checks.append(("argmax probabilities sum to 1", gap < 1e-10,
                   f"gap {gap:.2e}"))

    mu = np.array([0.0, 0.0, 0.0])
    mu_p = np.array([-1.0, 1.0, -1.0])
    viol = 0.0
    epses = (0.0, 0.5, 1.0)
    for eps, exact in zip(epses, rnm_exact_divergences(mu, mu_p, 1.0, epses)):
        bound = 3 * gaussian_profile(1.0, 2.0)(eps)
        viol = max(viol, exact - bound)
    checks.append(("noisy-argmax bound dominates exact", viol <= 1e-12,
                   f"worst excess {viol:.2e}"))

    one = Binomial(1, 1 - 1e-12)
    sel_gap = abs(selection_exact_divergence(pair, one, 1.0)
                  - hs_divergence_quadrature(pair, 1.0))
    checks.append(("single-run selection equals base", sel_gap < 1e-9,
                   f"gap {sel_gap:.2e}"))

    worst_excess = -math.inf
    for _, spec, dist in SELECTION_INSTANCES:
        base = scenario.build_base(*scenario.base_params(spec))
        bound = selection.bound_for_count(base, dist).profile(2.0)
        exact = selection_exact_divergence(instance_pair(spec), dist, 2.0)
        worst_excess = max(worst_excess, exact - bound)
    checks.append(("selection bound dominates exact", worst_excess <= 1e-12,
                   f"worst excess {worst_excess:.3e} over "
                   f"{len(SELECTION_INSTANCES)} instances"))

    rng_dist = Poisson(5.0)

    def sampler(rng, size):
        return rng.normal(0.0, 1.0, size)

    summary = mc_selection_sample(sampler, rng_dist, 100_000)
    analytic = selection_mean_quadrature(gaussian_pair(0.0, 0.0, 1.0), rng_dist)
    ci = 4.0 * 3.0 / math.sqrt(summary.trials)
    mean_gap = abs(summary.mean_best() - analytic)
    checks.append(("sampled best-value mean vs quadrature", mean_gap < ci,
                   f"gap {mean_gap:.3e} ci {ci:.3e}"))
    return checks
