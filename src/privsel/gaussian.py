"""The Gaussian leaf: the exact privacy profile of the Gaussian mechanism.

It is the only profile node that evaluates a special function, so it is
the one place, beside `pld` and `oracles`, that imports `scipy.special`
at module level.  `profiles`, `selection`, `countdist` and `scenario`
load numpy alone, so a query on a pure or points base, or under rdp on
a Gaussian base, never loads scipy.  `profiles` still reads the three
names defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .profiles import PrivacyProfile, _check_positive, clip_delta, clip_delta_array


@dataclass(frozen=True, eq=False)
class Gaussian(PrivacyProfile):
    """Exact profile of the Gaussian mechanism, valid at every real eps.

    delta(eps) = Phi(r/2 - eps/r) - e^eps Phi(-r/2 - eps/r) with
    r = sensitivity/sigma; the second term is evaluated in log space so
    the curve stays accurate far into the tail.
    """

    r: float

    def _unclipped(self, eps):
        # one expression for a float and for an array of eps alike
        r = self.r
        return ndtr(r / 2 - eps / r) - np.exp(eps + log_ndtr(-r / 2 - eps / r))

    def _at(self, eps):
        return clip_delta(float(self._unclipped(eps)))

    def on_array(self, eps):
        return clip_delta_array(self._unclipped(eps))


def gaussian_profile(sigma, sensitivity=1.0):
    """The Gaussian node of noise scale sigma at the given sensitivity."""
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    return Gaussian(sensitivity / sigma)


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
