"""The Gaussian leaf: the exact privacy profile of the Gaussian mechanism.

It is the only profile node that evaluates a special function: scipy's
compiled `ndtr` and `log_ndtr`, read through `_special`, so the module
loads without the `scipy.special` package's set-up.  `profiles`,
`selection`, `countdist` and `scenario` load numpy alone, so a query on
a pure or points base, or under rdp on a Gaussian base, never loads
scipy.  `profiles` still reads the three names defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import log_ndtr, ndtr
from .profiles import PrivacyProfile, _check_positive, clip_delta

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Newton steps `_ndtri_of_log` and `Gaussian._root` may take; from their
# starts they need about six
_NEWTON_STEPS = 50
# `Gaussian._root` stops once a step is at most this, relative to max(1, |eps|)
_ROOT_TOL = 1e-10


def _ndtri_of_log(t):
    """Phi^-1(e^t) for t < log(1/2), by Newton's method on log Phi, which
    is concave and increasing: from -sqrt(-2 t), which lies below the root
    since Phi(-a) <= e^(-a^2/2) / 2, every step rises towards the root, so
    the first step that does not rise ends the search."""
    b = -math.sqrt(-2.0 * t)
    for _ in range(_NEWTON_STEPS):
        log_cdf = float(log_ndtr(b))
        # (t - log Phi(b)) / (phi(b) / Phi(b)), the ratio taken in log space
        step = (t - log_cdf) * math.exp(log_cdf + 0.5 * b * b + _LOG_SQRT_2PI)
        if not b + step > b:
            break
        b += step
    return b


@dataclass(frozen=True, eq=False)
class Gaussian(PrivacyProfile):
    """Exact profile of the Gaussian mechanism, valid at every real eps.

    delta(eps) = Phi(r/2 - eps/r) - e^eps Phi(-r/2 - eps/r) with
    r = sensitivity/sigma; the second term is evaluated in log space so
    the curve stays accurate far into the tail.
    """

    r: float

    def _at(self, eps):
        r = self.r
        return clip_delta(float(ndtr(r / 2 - eps / r)
                                - np.exp(eps + log_ndtr(-r / 2 - eps / r))))

    def _root(self, delta):
        """The eps at which the leaf falls to delta, estimated by Newton's
        method on log delta, which is concave in eps, with d log delta /
        d eps = -e^(eps + log Phi(b)) / delta, b = -r/2 - eps/r.  It starts
        from the classical bound r^2/2 + r sqrt(2 log(1.25/delta)) and
        stops once a step is at most _ROOT_TOL * max(1, |eps|).  The
        estimate only steers `_bisect`, which checks it.  None where an
        iterate's delta or its term e^eps Phi(b) is not positive, as where
        they underflow, or where Newton does not settle."""
        r = self.r
        target = math.log(delta)
        eps = r * r / 2 + r * math.sqrt(2.0 * math.log(1.25 / delta))
        for _ in range(_NEWTON_STEPS):
            tail = math.exp(eps + float(log_ndtr(-r / 2 - eps / r)))
            value = float(ndtr(r / 2 - eps / r)) - tail
            if not (value > 0.0 and tail > 0.0):
                return None
            step = (math.log(value) - target) * value / tail
            eps += step
            if abs(step) <= _ROOT_TOL * max(1.0, abs(eps)):
                return eps
        return None

    def slope(self, eps):
        """-Phi(-r/2 - eps/r), the slope in e^eps: the derivative in eps is
        e^eps times it, since e^eps phi(-r/2 - eps/r) = phi(r/2 - eps/r)."""
        r = self.r
        return -float(ndtr(-r / 2 - eps / r))

    def crossing(self, ratio, cap):
        """The slope is -Phi(b) with b = -r/2 - eps/r, so 1 + ratio * slope
        turns non-negative where Phi(b) = 1/ratio, at eps = -r (b + r/2),
        clamped to [0, cap]; 0 where Phi(-r/2), the slope at eps = 0, is
        at most 1/ratio already, as at every ratio <= 2."""
        r = self.r
        if not 1.0 + ratio * self.slope(0.0) < 0.0:
            return 0.0
        b = _ndtri_of_log(-math.log(ratio))
        return min(max(-r * (b + r / 2), 0.0), cap)


def gaussian_profile(sigma, sensitivity=1.0):
    """The Gaussian node of noise scale sigma at the given sensitivity."""
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    r = sensitivity / sigma
    if r == 0:
        # a zero r would divide by zero at every eps; a subnormal one is kept
        raise ValueError(f"sensitivity / sigma underflows to 0, "
                         f"got sensitivity={sensitivity}, sigma={sigma}")
    return Gaussian(r)


def gaussian_sigma_for_eps_delta(eps, delta):
    """Noise scale sigma at which the unit-sensitivity Gaussian mechanism
    is exactly (eps, delta)-DP, to relative accuracy 1e-12 in delta."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")

    def delta_at(s):
        return gaussian_profile(s, 1.0)(eps)

    lo = 1e-3
    while delta_at(lo) <= delta:
        lo /= 2
    hi = 1.0
    while delta_at(hi) > delta:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = delta_at(mid)
        if abs(v - delta) <= 1e-12 * delta:
            return mid
        if v > delta:
            lo = mid
        else:
            hi = mid
    return hi
