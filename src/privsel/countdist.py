"""Distributions over the number of base-mechanism runs.

Randomized selection draws a count K, runs the base mechanism K times and
releases the best run.  Each distribution offers its pmf, cdf, mean, the
derivative of its probability generating function and a tail support
bound; the oracles and the fig4 table use those.

The bounds read only `mean()` and the parameters, so the module loads
numpy alone: `pmf`, `cdf` and `support_upper`, which evaluate through
`scipy.special`, import it when called.

The truncated negative binomial lives on {1, 2, ...}; binomial and Poisson
put mass on K = 0, which the selection bounds treat separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMeanError

# Validation sums truncate the support where the right tail drops below this.
TAIL_MASS = 1e-15
# below this |shape * log(success)|, 1 - success**shape cancels
_NEAR_ZERO_SHAPE = 1e-3


def _near_zero_norm(g, eta):
    """eta / (1 - g**eta) for |eta log g| < _NEAR_ZERO_SHAPE, through
    expm1: the direct form loses digits there, down to 0/0 for shapes
    within ~1e-16 of zero.  Tends to the shape-0 value 1/log(1/g)."""
    t = eta * math.log(g)
    return (1.0 if t == 0 else t / math.expm1(t)) / math.log(1 / g)


def _pmf_on(k, lo, hi, logpmf):
    """exp(logpmf(k)) at the entries of k in [lo, hi] and 0 elsewhere: a
    float for a scalar k, an array otherwise.  logpmf sees only the entries
    inside, as floats."""
    k = np.asarray(k)
    inside = (k >= lo) & (k <= hi)
    out = np.zeros(k.shape)
    out[inside] = np.exp(logpmf(k[inside].astype(float)))
    return float(out) if out.ndim == 0 else out


def _check_shape(eta):
    if not eta > -1:
        raise ValueError(f"shape must exceed -1, got {eta}")


def _negbin_mean(eta, g):
    """Mean of the truncated negative binomial of shape eta and success g."""
    if eta == 0:
        return (1 / g - 1) / math.log(1 / g)
    if abs(eta * math.log(g)) < _NEAR_ZERO_SHAPE:
        return (1 / g - 1) * _near_zero_norm(g, eta)
    return eta * (1 - g) / (g * (1 - g**eta))


@dataclass(frozen=True)
class TruncNegBinomial:
    """Truncated negative binomial on {1, 2, ...}.

    `shape` may be any real > -1; `success` is the success probability in
    (0, 1) of the embedded geometric.  shape=1 is the geometric distribution
    with mean 1/success, shape=0 the logarithmic distribution.
    """

    shape: float
    success: float

    def __post_init__(self):
        _check_shape(self.shape)
        if not 0 < self.success < 1:
            raise ValueError(f"success must be in (0,1), got {self.success}")

    def pmf(self, k):
        from scipy.special import gammaln
        g = self.success
        eta = self.shape
        if eta == 0:
            return _pmf_on(k, 1, math.inf, lambda kf: (
                kf * math.log1p(-g) - np.log(kf) - math.log(math.log(1 / g))))
        t = eta * math.log(g)
        if abs(t) < _NEAR_ZERO_SHAPE:
            # eta/(g^-eta - 1) = g^eta * eta/(1 - g^eta)
            pref = t + math.log(_near_zero_norm(g, eta))
        else:
            # eta/(g^-eta - 1) > 0 for every eta > -1, so the log is safe
            pref = math.log(eta / (g ** (-eta) - 1))
        return _pmf_on(k, 1, math.inf, lambda kf: (
            pref
            + kf * math.log1p(-g)
            + gammaln(kf + eta)
            - gammaln(1 + eta)
            - gammaln(kf + 1)))

    def mean(self):
        return _negbin_mean(self.shape, self.success)

    def cdf(self, k):
        k = int(k)
        if k < 1:
            return 0.0
        return float(np.sum(self.pmf(np.arange(1, k + 1))))

    def pgf_deriv(self, z):
        _check_z(z)
        g = self.success
        return (1 - (1 - g) * z) ** (-self.shape - 1) * g ** (self.shape + 1) * self.mean()

    def support_upper(self, tail=TAIL_MASS):
        """Smallest k whose right tail mass is at most `tail`.

        The tail is accumulated from the right, where the terms are tiny
        and stay accurate; a forward cumsum compared against 1 - tail can
        stall inside its own rounding error and never terminate.
        """
        hi = max(64, int(8 * self.mean()))
        while True:
            p = self.pmf(np.arange(1, hi + 1))
            # successive pmf ratios are (1-g)(k+shape)/(k+1), so the mass
            # past the window is under a geometric envelope once that
            # ratio drops below 1
            r = (1 - self.success) * max(1.0, (hi + 1 + self.shape) / (hi + 2))
            beyond = p[-1] * r / (1 - r) if r < 1 else math.inf
            if beyond <= tail / 2:
                after = np.zeros(hi)
                after[:-1] = np.cumsum(p[:0:-1])[::-1]
                idx = np.nonzero(after + beyond <= tail)[0]
                if idx.size:
                    return int(idx[0]) + 1
            hi *= 2


@dataclass(frozen=True)
class Binomial:
    """Binomial count, trials n with success probability strictly inside (0,1)."""

    trials: int
    prob: float

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if not 0 < self.prob < 1:
            raise ValueError(f"prob must be in (0,1), got {self.prob}")

    def pmf(self, k):
        from scipy.special import gammaln, xlog1py, xlogy
        n, p = self.trials, self.prob
        return _pmf_on(k, 0, n, lambda kf: (
            gammaln(n + 1) - (gammaln(kf + 1) + gammaln(n - kf + 1))
            + xlogy(kf, p) + xlog1py(n - kf, -p)))

    def mean(self):
        return self.trials * self.prob

    def cdf(self, k):
        from scipy.special import betainc
        k = math.floor(k)
        if k < 0:
            return 0.0
        if k >= self.trials:
            return 1.0
        return float(betainc(self.trials - k, k + 1, 1 - self.prob))

    def pgf_deriv(self, z):
        _check_z(z)
        n, p = self.trials, self.prob
        return n * p * (1 - p + p * z) ** (n - 1)

    def support_upper(self, tail=TAIL_MASS):
        return self.trials


@dataclass(frozen=True)
class Poisson:
    """Poisson count with the given mean."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def pmf(self, k):
        from scipy.special import gammaln, xlogy
        rate = self.rate
        return _pmf_on(k, 0, math.inf,
                       lambda kf: xlogy(kf, rate) - gammaln(kf + 1) - rate)

    def mean(self):
        return self.rate

    def cdf(self, k):
        from scipy.special import pdtr
        k = math.floor(k)
        return float(pdtr(k, self.rate)) if k >= 0 else 0.0

    def pgf_deriv(self, z):
        _check_z(z)
        return self.rate * math.exp(self.rate * (z - 1))

    def support_upper(self, tail=TAIL_MASS):
        """Two past the least k at which the cdf reaches 1 - tail, then up
        until the mass beyond k is at most `tail`."""
        from scipy.special import pdtr, pdtrc, pdtrik
        q = 1 - tail
        k = math.ceil(pdtrik(q, self.rate))
        if k >= 1 and pdtr(k - 1, self.rate) >= q:
            k -= 1
        k += 2
        while pdtrc(k, self.rate) > tail:
            k += 1
        return k


def _check_z(z):
    if not 0 <= z <= 1:
        raise ValueError(f"pgf argument must lie in [0,1], got {z}")


def from_expected(kind, m, *, shape=None, trials=None):
    """Build a count distribution of the given kind with mean m.

    kind "negbin" needs `shape` and solves for the success parameter
    (exactly 1/m in the geometric case), "binomial" needs `trials`,
    "poisson" needs nothing extra.
    """
    if m <= 0:
        raise InfeasibleMeanError(f"mean must be positive, got {m}")
    if kind == "negbin":
        if shape is None:
            raise ValueError("negbin needs a shape parameter")
        if m <= 1:
            raise InfeasibleMeanError(
                f"truncated negative binomial has mean > 1, requested {m}"
            )
        if shape == 1:
            return TruncNegBinomial(1.0, 1.0 / m)
        return TruncNegBinomial(shape, _solve_success(shape, m))
    if kind == "binomial":
        if trials is None:
            raise ValueError("binomial needs a trials parameter")
        p = m / trials
        if not 0 < p < 1:
            raise InfeasibleMeanError(
                f"binomial with {trials} trials cannot have mean {m} (p={p:g})"
            )
        return Binomial(int(trials), p)
    if kind == "poisson":
        return Poisson(m)
    raise ValueError(f"unknown count distribution kind {kind!r}")


def _solve_success(shape, m):
    _check_shape(shape)
    # mean is continuous and strictly decreasing in the success parameter,
    # from +inf near 0 down to 1 near 1, so plain bisection is safe
    lo = min(0.5, 1 / m)
    while _negbin_mean(shape, lo) < m:
        lo /= 10
        if lo < 1e-280:
            raise InfeasibleMeanError(f"mean {m} out of reach for shape {shape}")
    hi = 1 - 1e-12
    if _negbin_mean(shape, hi) > m:
        raise InfeasibleMeanError(f"mean {m} out of reach for shape {shape}")
    # iterate to relative width ~1e-18 so the mean round-trips within 1e-9
    # even when the solution sits at success ~ 1/m with m in the thousands;
    # a step that leaves (lo, hi) as it was would leave it so for good
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if _negbin_mean(shape, mid) > m else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return 0.5 * (lo + hi)
