"""Privacy profiles, Renyi curves, and conversions between them.

A privacy profile maps eps to an upper bound on the tight delta at that
eps (the worst-case hockey-stick divergence between neighboring outputs).
Profiles are plain immutable evaluators; everything downstream composes
them functionally.  A base profile may also carry an array evaluator
whose values equal the scalar ones bit for bit; `optimize_eps1` scans
its whole eps1 candidate grid through it in one call.  A Renyi curve is
data: its eps(alpha) bounds on a finite order grid, held as an array,
so converting it to (eps, delta) in either direction is one numpy
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import UnreachableTargetError

BISECT_TOL = 1e-6
EPS_CAP = 1e4
# (eps, point) cells a points profile's batch evaluates at once
_BATCH_CELLS = 1 << 16
# least positive subnormal float
_TINY = math.ulp(0.0)


@dataclass(frozen=True)
class PrivacyProfile:
    """Non-increasing map eps -> delta in [0,1].

    `knots` lists eps values where the curve has kinks (piecewise curves
    expose their corner points); optimizers add them to their candidate
    sets so piecewise-linear-in-exp(eps) curves are minimized exactly.
    """

    fn: Callable[[float], float]
    knots: tuple = ()
    # exact eps(delta), certified against fn; epsilon_for_delta uses it
    # instead of bisecting when present
    inverse: Callable[[float], float] | None = None
    # fn over a 1-d float64 array of eps, equal to fn entry for entry bit
    # for bit
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, eps):
        return self.fn(eps)

    def on_array(self, eps):
        """The profile at each eps of a 1-d float64 array, as a float64
        array: through `batch` when set, else one fn call per entry."""
        if self.batch is not None:
            return self.batch(eps)
        return np.array([self.fn(e) for e in eps.tolist()], dtype=float)


def clip_delta(x):
    """x clipped to [0, 1]; raises on NaN, which min/max clipping would
    silently turn into delta = 0."""
    if x != x:
        raise ValueError("delta evaluated to NaN")
    return 1.0 if x > 1.0 else (x if x > 0.0 else 0.0)


def clip_delta_array(x):
    """clip_delta of every entry of a float64 array."""
    if np.isnan(x).any():
        raise ValueError("delta evaluated to NaN")
    return np.where(x > 1.0, 1.0, np.where(x > 0.0, x, 0.0))


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class PointDP:
    """A single (eps, delta) guarantee."""

    eps: float
    delta: float

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0,1], got {self.delta}")


def default_orders():
    """Shared grid of Renyi orders: 1.1 to 10 in steps of 0.1, then integers to 256."""
    fine = [1 + k / 10 for k in range(1, 91)]
    coarse = [float(a) for a in range(11, 257)]
    return tuple(fine + coarse)


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """Renyi curve as data: `values[i]` bounds eps at order `orders[i]`.

    `orders` is a tuple of alpha > 1 and `values` a read-only float64
    array.  Calling the curve looks an order up on that grid and refuses
    any other order, where the curve certifies nothing.  Equality is
    identity.
    """

    orders: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.orders),):
            raise ValueError(f"{vals.shape} values for {len(self.orders)} orders")
        if np.isnan(vals).any():
            bad = self.orders[int(np.argmax(np.isnan(vals)))]
            raise ValueError(f"Renyi curve is NaN at order {bad:g}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, alpha):
        try:
            return float(self.values[self.orders.index(alpha)])
        except ValueError:
            raise ValueError(f"order {alpha:g} is not on the curve's grid") from None


@lru_cache(maxsize=8)
def _order_terms(orders):
    """Order-only parts of the Renyi-to-DP conversion, shared read-only by
    every curve on the grid: alpha - 1, (alpha-1) log(1 - 1/alpha) and
    log(alpha), kept apart so that rdp_to_dp sums them in the order of
    its per-order formula."""
    a = np.asarray(orders, dtype=float)
    am1 = a - 1
    terms = (am1, am1 * np.log1p(-1 / a), np.log(a))
    for t in terms:
        t.flags.writeable = False
    return terms


def gaussian_profile(sigma, sensitivity=1.0):
    """Exact profile of the Gaussian mechanism, valid at every real eps.

    delta(eps) = Phi(r/2 - eps/r) - e^eps Phi(-r/2 - eps/r) with
    r = sensitivity/sigma; the second term is evaluated in log space so
    the curve stays accurate far into the tail.
    """
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    r = sensitivity / sigma

    def unclipped(eps):
        # one expression for a float and for an array of eps alike
        a = ndtr(r / 2 - eps / r)
        b = eps + log_ndtr(-r / 2 - eps / r)
        return a - np.exp(b)

    return PrivacyProfile(lambda eps: clip_delta(float(unclipped(eps))),
                          batch=lambda eps: clip_delta_array(unclipped(eps)))


def gaussian_rdp_curve(sigma, sensitivity=1.0):
    """Renyi curve alpha -> alpha * sensitivity^2 / (2 sigma^2) of the Gaussian mechanism."""
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    c = sensitivity**2 / (2 * sigma**2)
    orders = default_orders()
    return RdpCurve(orders, np.asarray(orders, dtype=float) * c)


def profile_from_points(points):
    """Pessimistic profile through a list of (eps, delta) guarantees.

    Between stored points the curve uses delta_i + (e^{eps_i} - e^eps)_+,
    valid because the hockey-stick divergence is 1-Lipschitz in e^eps;
    the minimum over stored points is taken and clipped to [0,1].
    """
    pts = sorted(
        (p.eps, p.delta) if isinstance(p, PointDP) else (float(p[0]), float(p[1]))
        for p in points
    )
    if not pts:
        raise ValueError("need at least one point")
    eps_arr = np.array([p[0] for p in pts])
    del_arr = np.array([p[1] for p in pts])
    # PointDP's rule; a NaN fails every comparison
    ok = (0 <= eps_arr) & (eps_arr < math.inf) & (0 <= del_arr) & (del_arr <= 1)
    if not ok.all():
        raise ValueError(f"points need finite eps >= 0 and delta in [0,1], got {pts}")
    with np.errstate(over="ignore"):
        exp_arr = np.exp(eps_arr)
    top = eps_arr[-1]

    # the unclipped minimum over the points, at a float or at each entry
    # of a column: `below` takes e^min(eps, top), `past` takes eps
    def below(e):
        return np.min(del_arr + np.maximum(exp_arr - e, 0.0), axis=-1)

    def past(eps):
        # e^eps_i overflows, so the gap above eps is e^eps expm1(eps_i - eps);
        # an infinite gap is a term clipped to 1, as it should be.  e^eps is
        # floored at the least subnormal, so that below eps = -745 the gap
        # is inf and not 0 * inf.  A NaN eps puts every point above it, so
        # the NaN reaches the clip.
        above = ~(eps_arr <= eps)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.maximum(np.exp(eps), _TINY) * np.expm1(eps_arr - eps)
        return np.min(del_arr + np.where(above, gap, 0.0), axis=-1)

    if math.isfinite(exp_arr[-1]):
        def fn(eps):
            return clip_delta(float(below(math.exp(min(eps, top)))))

        def rows(eps):
            # math.exp per entry as in fn: np.exp rounds some values differently
            e = [math.exp(x) for x in np.minimum(eps, top).tolist()]
            return below(np.array(e)[:, None])
    else:
        def fn(eps):
            return clip_delta(float(past(eps)))

        def rows(eps):
            return past(eps[:, None])

    step = max(1, _BATCH_CELLS // len(pts))

    def batch(eps):
        out = np.empty(len(eps))
        for i in range(0, len(eps), step):
            out[i:i + step] = rows(eps[i:i + step])
        return clip_delta_array(out)

    return PrivacyProfile(fn, knots=tuple(eps_arr), batch=batch)


def scaled_profile(base, factor, shift=0.0, positive_eps_only=False):
    """min(1, factor * base(eps - shift)), with the knots shifted along.

    With positive_eps_only the profile is 1 at eps <= 0: a mechanism
    that may release nothing certifies nothing there.
    """

    def fn(eps):
        if positive_eps_only and eps <= 0:
            return 1.0
        return min(1.0, factor * base(eps - shift))

    return PrivacyProfile(fn, knots=tuple(k + shift for k in base.knots))


def rdp_to_dp(curve, eps_target):
    """Delta at eps_target implied by a Renyi curve.

    Uses delta = exp((alpha-1)(eps' - eps)) / alpha * (1 - 1/alpha)^(alpha-1)
    minimized over the curve's order grid, clipped to [0,1].
    """
    am1, log_frac, log_a = _order_terms(curve.orders)
    log_d = am1 * (curve.values - eps_target) + log_frac - log_a
    return float(np.exp(min(0.0, np.min(log_d))))


def rdp_eps_for_delta(curve, delta):
    """Smallest eps with rdp_to_dp(curve, eps) <= delta, in closed form.

    Each order certifies delta at every eps >= eps(alpha) + (log(1/delta)
    + (alpha-1) log(1-1/alpha) - log(alpha))/(alpha-1); the minimum over
    the grid, floored at 0, is the answer.  Rounding can leave the
    converted delta a few ulps above target there, so eps is nudged
    upward, one ulp first and by doubling steps after, until rdp_to_dp
    itself certifies it.  May return a value above EPS_CAP (or inf).
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta target must be in (0,1], got {delta}")
    am1, log_frac, log_a = _order_terms(curve.orders)
    cand = curve.values + (-math.log(delta) + log_frac - log_a) / am1
    eps = max(0.0, float(np.min(cand)))
    step = math.ulp(eps)
    while eps <= EPS_CAP and rdp_to_dp(curve, eps) > delta:
        eps += step
        step *= 2
    return eps


def rdp_profile(curve):
    """Wrap a Renyi curve as a PrivacyProfile via the conversion above,
    with its closed-form inverse."""
    return PrivacyProfile(lambda eps: rdp_to_dp(curve, eps),
                          inverse=lambda delta: rdp_eps_for_delta(curve, delta))


def epsilon_for_delta(profile, delta_target):
    """Smallest eps at which the profile drops to delta_target.

    A profile with an exact inverse answers through it.  Otherwise the
    answer is within 1e-6 above the true value: brackets by doubling from
    1 up to a hard cap of 1e4, then bisects.
    """
    if not 0 < delta_target <= 1:
        raise ValueError(f"delta target must be in (0,1], got {delta_target}")
    if profile(0.0) <= delta_target:
        return 0.0
    if profile.inverse is not None:
        eps = max(0.0, profile.inverse(delta_target))
        if eps > EPS_CAP:
            raise UnreachableTargetError(
                f"profile still above delta={delta_target:g} at eps={EPS_CAP:g}"
            )
        return eps
    lo, hi = 0.0, 1.0
    while profile(hi) > delta_target:
        if hi >= EPS_CAP:
            raise UnreachableTargetError(
                f"profile still above delta={delta_target:g} at eps={EPS_CAP:g}"
            )
        lo = hi
        hi = min(2 * hi, EPS_CAP)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if profile(mid) <= delta_target:
            hi = mid
        else:
            lo = mid
    return hi


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
