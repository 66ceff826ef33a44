"""Distributions over the number of base-mechanism runs.

Randomized selection draws a count K, runs the base mechanism K times and
releases the best run.  Each distribution offers its pmf, cdf, mean, the
derivative of its probability generating function (at a float or an
array) and a tail support bound; the oracles and the fig4 table use those.
Each also offers the shift its selection bound subtracts from a queried
eps, a function of floats (eps1, delta1) evaluated by `math`: `shift`.

The bounds read only `mean()`, the shift and the parameters, so the
module loads numpy alone.  `pmf`, the Poisson `cdf` and `support_upper`
import their special functions from `_special` when called, which loads
scipy's compiled ufuncs without the `scipy.special` package; only the
binomial `cdf` (`betainc`, read by the fig4 table) imports the package.

The truncated negative binomial lives on {1, 2, ...}; binomial and Poisson
put mass on K = 0, which the selection bounds treat separately.

`from_expected` solves a negbin success once per (shape, mean) and keeps
the last `_SOLVES_KEPT` (1024) distinct solves for the process.  That
saves work only where one process asks for the same two floats again,
as the hs bound, the Renyi baseline and a point-list bound on one count
do when each builds the count from its mean.
The solve is a pure function of the floats, so a kept success has the
bits of a fresh one; `_kept_success.cache_clear()` empties the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._search import UNKNOWN, gallop, halve
from .errors import InfeasibleMeanError

# Validation sums truncate the support where the right tail drops below this.
TAIL_MASS = 1e-15
# below this |shape * log(success)|, 1 - success**shape cancels
_NEAR_ZERO_SHAPE = 1e-3
# Newton steps `_success_band` may take; it needs about six
_SUCCESS_STEPS = 60
# distinct (shape, mean) success solves `from_expected` keeps; a caller
# that asks again for one of the last this many counts pays no solve
_SOLVES_KEPT = 1024


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
        raise ValueError(f"shape eta must exceed -1, got {eta}")


def _check_trials(trials):
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials n must be a positive integer, got {trials}")


def _check_gamma(gamma):
    """Refuse a success probability gamma whose 1/gamma overflows a float:
    the negbin bounds read (1-gamma)/gamma and log(1/gamma)."""
    if 1 / gamma == math.inf:
        raise ValueError(f"1 / gamma overflows a float, got gamma={gamma}")


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

    `shape` may be any real > -1; `success`, the bounds' gamma, is the
    success probability in (0, 1) of the embedded geometric, with 1/gamma
    finite.  shape=1 is the geometric distribution with mean 1/success,
    shape=0 the logarithmic distribution.
    """

    shape: float
    success: float

    def __post_init__(self):
        _check_shape(self.shape)
        if not 0 < self.success < 1:
            raise ValueError(f"success gamma must be in (0,1), got {self.success}")
        _check_gamma(self.success)

    def pmf(self, k):
        from ._special import gammaln
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

    def shift(self, e1, d1):
        """(eta+1) * log(e^eps1 + ((1-gamma)/gamma) * delta1)."""
        return (self.shape + 1.0) * math.log(
            math.exp(e1) + (1.0 - self.success) / self.success * d1)

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
        _check_trials(self.trials)
        if not 0 < self.prob < 1:
            raise ValueError(f"prob p must be in (0,1), got {self.prob}")

    def pmf(self, k):
        from ._special import gammaln, xlog1py, xlogy
        n, p = self.trials, self.prob
        return _pmf_on(k, 0, n, lambda kf: (
            gammaln(n + 1) - (gammaln(kf + 1) + gammaln(n - kf + 1))
            + xlogy(kf, p) + xlog1py(n - kf, -p)))

    def mean(self):
        return self.trials * self.prob

    def shift(self, e1, d1):
        """(n-1) * log(1 + p (e^eps1 - 1) + p delta1), meaningful only at
        or above the bound's admissibility threshold for eps1."""
        return (self.trials - 1.0) * math.log1p(self.prob * math.expm1(e1) + self.prob * d1)

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
    """Poisson count with the given finite positive mean."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate m must be positive and finite, got {self.rate}")

    def pmf(self, k):
        from ._special import gammaln, xlogy
        rate = self.rate
        return _pmf_on(k, 0, math.inf,
                       lambda kf: xlogy(kf, rate) - gammaln(kf + 1) - rate)

    def mean(self):
        return self.rate

    def shift(self, e1, d1):
        """m (e^eps1 - 1) + m delta1."""
        return self.rate * math.expm1(e1) + self.rate * d1

    def cdf(self, k):
        # pdtr(k, rate), the regularized upper incomplete gamma at k + 1
        from ._special import gammaincc
        k = math.floor(k)
        return float(gammaincc(k + 1, self.rate)) if k >= 0 else 0.0

    def pgf_deriv(self, z):
        _check_z(z)
        # math.exp on a float: np.exp can round it otherwise
        exp = np.exp if isinstance(z, np.ndarray) else math.exp
        return self.rate * exp(self.rate * (z - 1))

    def support_upper(self, tail=TAIL_MASS):
        """Two past the least k at which the cdf reaches 1 - tail, then up
        until the mass beyond k is at most `tail`.

        gammaincc(k + 1, rate) is the cdf at k and gammainc(k + 1, rate)
        the mass beyond it.  As pdtrik does for a level past 1/2, the
        least k is searched on the mass beyond, against 1 - (1 - tail).
        The cdf rounds in steps of 1.1e-16 near 1: searched against
        1 - tail, it stops a few k early for tails below about 5e-16."""
        from ._special import gammainc, gammaincc
        if not 0 < tail <= 1:
            raise ValueError(f"tail must be in (0,1], got {tail}")
        rate, q = self.rate, 1 - tail
        beyond = 1 - q
        # the least k with gammainc(k + 1) <= beyond
        k = gallop(lambda j: gammainc(j + 1, rate) <= beyond, -1, max(1, math.ceil(rate)))[1]
        if k >= 1 and gammaincc(k, rate) >= q:
            k -= 1
        k += 2
        while gammainc(k + 1, rate) > tail:
            k += 1
        return k


def _check_z(z):
    """Refuse a pgf argument, float or array, with a value outside [0, 1]."""
    if isinstance(z, np.ndarray):
        outside = z[~((z >= 0) & (z <= 1))]
        if outside.size:
            raise ValueError(f"pgf argument must lie in [0,1], got {outside.flat[0]}")
    elif not 0 <= z <= 1:
        raise ValueError(f"pgf argument must lie in [0,1], got {z}")


def from_expected(kind, m, *, shape=None, trials=None):
    """Build a count distribution of the given kind with mean m.

    kind "negbin" needs `shape` and solves for the success parameter
    (exactly 1/m in the geometric case), "binomial" needs `trials`,
    "poisson" needs nothing extra.

    A negbin success is solved once per (float(shape), float(m)), an
    np.float64 being the float it holds, and kept as a Python float for
    the last `_SOLVES_KEPT` distinct pairs: a count asked for again in
    the same process is the same count to the bit, with no solve.  A
    pair that raises is solved again on every call.
    """
    if m <= 0:
        raise InfeasibleMeanError(f"mean m must be positive, got {m}")
    if not m < math.inf:
        raise InfeasibleMeanError(f"mean m must be finite, got {m}")
    if kind == "negbin":
        if shape is None:
            raise ValueError("negbin needs a shape parameter")
        if m <= 1:
            raise InfeasibleMeanError(
                f"truncated negative binomial has mean > 1, requested {m}"
            )
        if shape == 1:
            return TruncNegBinomial(1.0, 1.0 / m)
        return TruncNegBinomial(shape, _kept_success(float(shape), float(m)))
    if kind == "binomial":
        if trials is None:
            raise ValueError("binomial needs a trials parameter")
        _check_trials(trials)
        p = m / trials
        if not 0 < p < 1:
            raise InfeasibleMeanError(
                f"binomial with {trials} trials cannot have mean {m} (p={p:g})"
            )
        return Binomial(trials, p)
    if kind == "poisson":
        return Poisson(m)
    raise ValueError(f"unknown count distribution kind {kind!r}")


@lru_cache(maxsize=_SOLVES_KEPT)
def _kept_success(shape, m):
    # lru_cache keeps no exception, so an out-of-reach mean raises each time
    return _solve_success(shape, m)


def _solve_success(shape, m):
    """The success parameter at which the negbin mean is m: the midpoint of
    the bracket that 90 halvings from [lo, 1 - 1e-12] end on.  The mean is
    continuous and strictly decreasing in it, from +inf near 0 down to 1
    near 1, so plain bisection is safe: lo is found by steps down from
    1/m, and a halving that keeps the mean at lo at least m and at hi at
    most m closes on the one root.  The halving probes only inside the
    band `_success_band` puts about the root, and so ends on the floats a
    plain one ends on wherever the computed mean is monotone outside it."""
    _check_shape(shape)
    lo = min(0.5, 1 / m)
    while (mean_lo := _negbin_mean(shape, lo)) < m:
        lo /= 10
        if lo < 1e-280:
            raise InfeasibleMeanError(f"mean {m} out of reach for shape {shape}")
    hi = 1 - 1e-12
    if _negbin_mean(shape, hi) > m:
        raise InfeasibleMeanError(f"mean {m} out of reach for shape {shape}")

    def passes(g):
        return not _negbin_mean(shape, g) > m

    known = _success_band(shape, m, lo, mean_lo, hi, passes)
    # iterate to relative width ~1e-18 so the mean round-trips within 1e-9
    # even when the solution sits at success ~ 1/m with m in the thousands
    lo, hi = halve(passes, lo, hi, steps=90, known=known)
    return 0.5 * (lo + hi)


def _success_band(shape, m, lo, mean_lo, hi, passes):
    """(a, b) about the root of mean = m in [lo, hi], the mean at lo being
    mean_lo, with `passes` seen to fail at a and to hold at b; `UNKNOWN`
    where Newton's method does not settle or the band does not straddle
    the root.

    The root is found by Newton's method in u = log g on log mean, from
    lo, kept inside the bracket: a step that leaves it bisects it in u
    instead.  Its slope, the elasticity d log mean / d u, is
    -1/(1 - g) + g^eta eta/(1 - g^eta) = 1/expm1(u) - q/u with
    q = t e^t/expm1(t), t = eta u.  Each step multiplies g by e^step, as
    u itself resolves g no finer than ulp(u) relative.  The band's
    half-width is `_band_ulps` ulps of the root, outside which the
    rounding of the computed mean cannot reach m; Newton stops once a
    step is a sixteenth of it."""
    log_m = math.log(m)
    g_lo, g_hi = lo, hi
    g, v = lo, math.log(mean_lo) - log_m
    for _ in range(_SUCCESS_STEPS):
        u = math.log(g)
        t = shape * u
        q = t * math.exp(t) / math.expm1(t) if t else 1.0
        slope = 1.0 / math.expm1(u) - q / u
        # a slope that rounds to 0 or above takes a bisection step
        step = -v / slope if slope < 0 else math.inf
        if abs(step) <= _band_ulps(shape, u) * 2.0**-57:
            g *= math.exp(step)
            break
        # capped below the overflow of exp; a step past the bracket bisects it
        g *= math.exp(min(step, 700.0))
        if not g_lo < g < g_hi:
            g = math.sqrt(g_lo) * math.sqrt(g_hi)
        v = math.log(_negbin_mean(shape, g)) - log_m
        if v > 0:
            g_lo = g
        elif v < 0:
            g_hi = g
        else:
            break
    else:
        return UNKNOWN
    width = _band_ulps(shape, math.log(g)) * math.ulp(g)
    a, b = max(g - width, lo), min(g + width, hi)
    # at lo the mean is at least m and at hi at most m already
    if (a > lo and passes(a)) or (b < hi and not passes(b)):
        return UNKNOWN
    return a, b


def _band_ulps(eta, u):
    """Half-width, in ulps of g = e^u, of the band about the root of
    mean = m outside which the computed mean lies on the root's side:
    2**10 ulps, plus 64 / c for the cancellation in 1 - g**eta
    (c = |eta u|) or, under the expm1 form, in 1/g - 1 and log(1/g)
    (c = |u|), both divided by the least elasticity |d log mean / d u|,
    min(1, 1+eta)/2, its limit as g -> 1 (as g -> 0 it is
    min(1, 1+eta))."""
    t = abs(eta * u)
    c = t if t >= _NEAR_ZERO_SHAPE else abs(u)
    return (2.0**10 + 64.0 / c) / (0.5 * min(1.0, 1.0 + eta))
