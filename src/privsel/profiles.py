"""Privacy profiles, Renyi curves, and conversions between them.

A privacy profile maps eps to an upper bound on the tight delta at that
eps (the worst-case hockey-stick divergence between neighboring outputs).
Profiles are data: a small tree of immutable nodes, each evaluated at one
eps by a call and over an array of eps by `on_array`, bit for bit alike,
and inverted at one delta by `inverse`.  Four leaves and one interior node:

- `Gaussian(r)` (in `privsel.gaussian`): the Gaussian mechanism at
  r = sensitivity/sigma, inverted by bisection;
- `Points(eps, delta)`: the pessimistic curve through (eps, delta) points,
  inverted in closed form;
- `Renyi(curve)`: a Renyi curve converted to delta, inverted in closed form;
- `Pld(remove, add)` (in `privsel.pld`): the larger delta of two
  discretized privacy-loss distributions, inverted in closed form in one
  grid cell of each;
- `Scaled(base, factor, shift, positive_eps_only)`: min(1, factor *
  base(eps - shift)), the transform of every selection and argmax bound,
  inverted through its base at delta/factor.

A Renyi curve is data too: its eps(alpha) bounds on a finite order grid,
held as an array, so converting it to (eps, delta) in either direction
is one numpy expression.

The module loads numpy alone.  The Gaussian leaf, which needs
`scipy.special`, lives in `privsel.gaussian`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnreachableTargetError

BISECT_TOL = 1e-6
EPS_CAP = 1e4
# (eps, point) cells Points.on_array evaluates at once
_BATCH_CELLS = 1 << 16
# least positive subnormal float
_TINY = math.ulp(0.0)
# upward steps `_certified` takes, one ulp and then doubling (255 ulps in
# all), before it falls back to bisection
_NUDGES = 8


class PrivacyProfile:
    """Non-increasing map eps -> delta in [0,1]; the base of the nodes.

    A node gives its value at one eps in `_at`, reached only through
    `__call__`, and over a 1-d float64 array of eps in `on_array`, equal
    entry for entry bit for bit; both refuse a NaN eps.  A node with a
    form of its own for the least eps >= floor at which it is at most
    delta proposes it in `_inverse`, reached only through `inverse`,
    which certifies the proposal; any other node is bisected.  `knots`
    lists eps values where the curve has kinks; optimizers add them to
    their candidate sets so piecewise-linear-in-exp(eps) curves are
    minimized exactly.
    """

    knots = ()

    def __call__(self, eps):
        return self._at(eps)

    def on_array(self, eps):
        raise NotImplementedError

    def inverse(self, delta, floor=0.0):
        """Least eps >= floor at which the node is at most delta (> 0),
        within BISECT_TOL above it where the node is bisected, or a value
        above EPS_CAP (possibly inf) where it stays above delta up to
        EPS_CAP.  Every answer up to EPS_CAP is certified: the node
        evaluates to at most delta there.  A Scaled node whose base target
        delta/factor is below the least normal float raises
        UnreachableTargetError."""
        if not delta > 0:
            raise ValueError(f"delta target must be positive, got {delta}")
        if delta >= 1.0:
            return floor
        eps = self._inverse(delta, floor)
        if eps is None:
            return _bisect(self, delta, floor)
        return _certified(self, eps, delta, floor)

    def _inverse(self, delta, floor):
        # the node's own form of its inverse, or None to be bisected
        return None


def _bisect(node, delta, floor):
    """The least eps >= floor at which node(eps) <= delta, to within
    BISECT_TOL above it: brackets by doubling the width from 1 (from one
    ulp of floor where that is wider, as floor + 1 rounds back to floor
    once |floor| >= 2**53) until the end passes EPS_CAP (inf there), then
    bisects, stopping at adjacent floats where those lie more than
    BISECT_TOL apart.  hi is certified as it goes."""
    lo, hi = floor, floor + max(1.0, math.ulp(floor))
    while node(hi) > delta:
        if hi >= EPS_CAP:
            return math.inf
        lo, hi = hi, min(floor + 2 * (hi - floor), EPS_CAP)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if node(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def _certified(node, eps, delta, floor):
    """eps, stepped upward until node(eps) <= delta: first by one ulp of
    max(|eps|, 1), since e^eps resolves no finer below 1, then by doubling
    steps, _NUDGES steps in all.  A closed form lands within a few ulps of
    the exact root, and rounding may leave the node a hair above delta
    there.  Where the steps are not enough, as on a stretch where the node
    is flat at delta up to rounding, the node is bisected.  An eps above
    EPS_CAP is returned as it is."""
    step = math.ulp(max(abs(eps), 1.0))
    for _ in range(_NUDGES + 1):
        if eps > EPS_CAP or node(eps) <= delta:
            return eps
        eps += step
        step *= 2
    return _bisect(node, delta, floor)


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


# the Poisson Renyi scan cycles about 40 admissible order prefixes a row
@lru_cache(maxsize=64)
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


def gaussian_rdp_curve(sigma, sensitivity=1.0):
    """Renyi curve alpha -> alpha * sensitivity^2 / (2 sigma^2) of the Gaussian mechanism."""
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    c = sensitivity**2 / (2 * sigma**2)
    orders = default_orders()
    return RdpCurve(orders, np.asarray(orders, dtype=float) * c)


@dataclass(frozen=True, eq=False)
class Points(PrivacyProfile):
    """Pessimistic profile through (eps, delta) guarantees, sorted by eps.

    Between stored points the curve uses delta_i + (e^{eps_i} - e^eps)_+,
    valid because the hockey-stick divergence is 1-Lipschitz in e^eps;
    the minimum over stored points is taken and clipped to [0,1].
    """

    eps: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_exp", np.exp(self.eps))
        # the largest eps_i, past which the curve is flat, if every e^eps_i is finite
        object.__setattr__(self, "_top", self.eps[-1] if math.isfinite(self._exp[-1]) else None)
        object.__setattr__(self, "knots", tuple(self.eps))

    # the unclipped minimum over the points, at a float or at each entry
    # of a column: `_below` takes e^min(eps, top), `_past` takes eps
    def _below(self, e):
        return (self.delta + np.maximum(self._exp - e, 0.0)).min(axis=-1)

    def _past(self, eps):
        # e^eps_i overflows, so the gap above eps is e^eps expm1(eps_i - eps);
        # an infinite gap is a term clipped to 1, as it should be.  e^eps is
        # floored at the least subnormal, so that below eps = -745 the gap
        # is inf and not 0 * inf.  A NaN eps puts every point above it, so
        # the NaN reaches the clip.
        above = ~(self.eps <= eps)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.maximum(np.exp(eps), _TINY) * np.expm1(self.eps - eps)
        return (self.delta + np.where(above, gap, 0.0)).min(axis=-1)

    def _at(self, eps):
        if self._top is None:
            return clip_delta(float(self._past(eps)))
        return clip_delta(float(self._below(math.exp(min(eps, self._top)))))

    def on_array(self, eps):
        out = np.empty(len(eps))
        step = max(1, _BATCH_CELLS // len(self.eps))
        for i in range(0, len(eps), step):
            block = eps[i:i + step]
            if self._top is None:
                out[i:i + step] = self._past(block[:, None])
            else:
                # math.exp per entry as in _at: np.exp rounds some values differently
                e = [math.exp(x) for x in np.minimum(block, self._top).tolist()]
                out[i:i + step] = self._below(np.array(e)[:, None])
        return clip_delta_array(out)

    def _inverse(self, delta, floor):
        # point i certifies delta from e^eps = e^eps_i - (delta - delta_i)
        # on, when delta_i <= delta; the least such eps wins.  Past e^709
        # the exponentials overflow, and the curve is bisected
        if self._top is None:
            return None
        gaps = [e - (delta - d)
                for e, d in zip(self._exp.tolist(), self.delta.tolist()) if d <= delta]
        if not gaps:
            return math.inf
        least = min(gaps)
        return max(math.log(least), floor) if least > 0.0 else floor


def profile_from_points(points):
    """The Points node through a list of (eps, delta) guarantees, given
    as PointDP or pairs; each needs finite eps >= 0 and delta in [0,1]."""
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
    return Points(eps_arr, del_arr)


@dataclass(frozen=True, eq=False)
class Scaled(PrivacyProfile):
    """min(1, factor * base(eps - shift)), with the base's knots shifted along.

    With positive_eps_only the profile is 1 at eps <= 0: a mechanism
    that may release nothing certifies nothing there.
    """

    base: PrivacyProfile
    factor: float
    shift: float = 0.0
    positive_eps_only: bool = False

    @property
    def knots(self):
        return tuple(k + self.shift for k in self.base.knots)

    def _at(self, eps):
        if self.positive_eps_only and eps <= 0:
            return 1.0
        return min(1.0, self.factor * self.base(eps - self.shift))

    def on_array(self, eps):
        # the base is evaluated at the eps _at evaluates it at, a NaN among them
        keep = ~(eps <= 0) if self.positive_eps_only else slice(None)
        d = self.base.on_array(eps[keep] - self.shift)
        out = np.ones(len(eps))
        out[keep] = np.where(self.factor * d < 1.0, self.factor * d, 1.0)
        return out

    def _inverse(self, delta, floor):
        # the base's inverse at delta/factor, shifted.  Below the least
        # normal float a base's value certifies nothing (a Gaussian's ndtr
        # is 0 at -37.7, where the true value is 2.5e-311), so such a
        # target is refused, not searched for
        target = delta / self.factor
        if target < sys.float_info.min:
            raise UnreachableTargetError(
                f"delta/factor = {delta:g}/{self.factor:g} is below the least "
                f"normal float, where the base certifies nothing")
        eps = self.shift + self.base.inverse(target, floor - self.shift)
        # with positive_eps_only the node is 1 at eps <= 0
        return max(eps, _TINY) if self.positive_eps_only else eps


def rdp_to_dp(curve, eps_target):
    """Delta at eps_target implied by a Renyi curve.

    Uses delta = exp((alpha-1)(eps' - eps)) / alpha * (1 - 1/alpha)^(alpha-1)
    minimized over the curve's order grid, clipped to [0,1].
    """
    if eps_target != eps_target:
        raise ValueError("eps is NaN")
    am1, log_frac, log_a = _order_terms(curve.orders)
    log_d = am1 * (curve.values - eps_target) + log_frac - log_a
    return float(np.exp(min(0.0, np.min(log_d))))


@dataclass(frozen=True, eq=False)
class Renyi(PrivacyProfile):
    """A Renyi curve as a profile, through rdp_to_dp, inverted in closed
    form."""

    curve: RdpCurve

    def _at(self, eps):
        return rdp_to_dp(self.curve, eps)

    def on_array(self, eps):
        # rdp_to_dp broadcast over a column of eps; min(0, x) is 0 at a NaN x
        if np.isnan(eps).any():
            raise ValueError("eps is NaN")
        am1, log_frac, log_a = _order_terms(self.curve.orders)
        log_d = np.min(am1 * (self.curve.values - eps[:, None]) + log_frac - log_a, axis=1)
        return np.exp(np.where(log_d < 0.0, log_d, 0.0))

    def _inverse(self, delta, floor):
        # order alpha certifies delta from eps(alpha) + (log(1/delta) +
        # (alpha-1) log(1-1/alpha) - log(alpha))/(alpha-1) on; the least
        # such eps wins
        am1, log_frac, log_a = _order_terms(self.curve.orders)
        cand = self.curve.values + (-math.log(delta) + log_frac - log_a) / am1
        return max(float(np.min(cand)), floor)


def rdp_profile(curve):
    """The Renyi node of a curve."""
    return Renyi(curve)


def epsilon_for_delta(profile, delta_target):
    """Smallest eps >= 0 at which the profile drops to delta_target.

    0 if the profile is already there at eps = 0.  Otherwise the node's
    own inverse answers: Points, Pld and Renyi in closed form, Scaled
    through its base at delta_target/factor, and a Gaussian (and any node
    without its own) by bisection, within BISECT_TOL above the true value.
    Every answer is certified, the profile evaluating to at most
    delta_target there; one that passes EPS_CAP (1e4), or a Scaled
    target delta_target/factor below the least normal float, raises
    UnreachableTargetError.
    """
    if not 0 < delta_target <= 1:
        raise ValueError(f"delta target must be in (0,1], got {delta_target}")
    if profile(0.0) <= delta_target:
        return 0.0
    eps = profile.inverse(delta_target)
    if eps > EPS_CAP:
        raise UnreachableTargetError(
            f"profile still above delta={delta_target:g} at eps={EPS_CAP:g}"
        )
    return eps


# The Gaussian leaf's names, still read here: perfbench's child calls
# `profiles.gaussian_profile` and its tracer patches it here.  The leaf
# is imported on the first read, and each name is then held as a global,
# so a later read costs what any attribute read does (0.05 us, against
# about 1 us through this function).
_GAUSSIAN = ("Gaussian", "gaussian_profile", "gaussian_sigma_for_eps_delta")


def __getattr__(name):
    if name not in _GAUSSIAN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gaussian
    value = globals()[name] = getattr(gaussian, name)
    return value
