"""Privacy profiles, Renyi curves, and conversions between them.

A privacy profile maps eps to an upper bound on the tight delta at that
eps (the worst-case hockey-stick divergence between neighboring outputs).
Profiles are data: a small tree of immutable nodes, each evaluated at one
eps by a call and inverted at one delta by `inverse`.  The leaves that
are true privacy profiles also give their slope in e^eps, from which the
eps1 of a selection bound is read.  Four leaves and one interior node:

- `Gaussian(r)` (in `privsel.gaussian`): the Gaussian mechanism at
  r = sensitivity/sigma, inverted by a bisection that evaluates the
  leaf only about its Newton root; slope -Phi(-r/2 - eps/r);
- `Points(eps, delta)`: the pessimistic curve through (eps, delta) points,
  inverted in closed form; slope -1 or 0, by the least point's cone;
- `Renyi(curve)`: a Renyi curve converted to delta, inverted in closed form;
- `Pld(remove, add)` (in `privsel.pld`): the larger delta of two
  discretized privacy-loss distributions, inverted in closed form in one
  grid cell of each; slope -s2, the larger direction's mass above eps
  weighted by e^-loss;
- `Scaled(base, factor, shift, positive_eps_only)`: min(1, factor *
  base(eps - shift)), the transform of every selection and argmax bound,
  inverted through its base at delta/factor.

A Renyi curve is data too: one eps(alpha) bound at each of the 336
orders of the one grid (`default_orders`), held as an array, with +inf
at an order where the curve bounds nothing.  Converting it to (eps,
delta) in either direction is a few numpy steps over that array and the
grid's order terms, alpha - 1, (alpha-1) log(1 - 1/alpha) and log alpha,
which are module constants.  An order at +inf drops out of the minimum
over orders, and a curve at +inf everywhere reads delta 1.  `rdp_to_dp`
at a float eps skips the round trip through a 0-d array, to the bits of
the array path.

The module loads numpy alone.  The Gaussian leaf, which needs scipy's
special functions, lives in `privsel.gaussian`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._search import UNKNOWN, halve
from .errors import UnreachableTargetError

BISECT_TOL = 1e-6
EPS_CAP = 1e4
# least positive subnormal float
_TINY = math.ulp(0.0)
# upward steps `_certified` takes, one ulp and then doubling (255 ulps in
# all), before it falls back to bisection
_NUDGES = 8
# half-width of `_straddle`, relative to max(1, |root estimate|): far
# wider than the shift the rounding of a Gaussian leaf's value can give
# its crossing of delta, and so narrow against BISECT_TOL that the
# halving seldom probes inside it
_STRADDLE = 1e-9


class PrivacyProfile:
    """Non-increasing map eps -> delta in [0,1]; the base of the nodes.

    A node gives its value at one eps in `_at`, reached only through
    `__call__`, and refuses a NaN eps.  A node with a form of its own for
    the least eps >= floor at which it is at most delta proposes it in
    `_inverse`, reached only through `inverse`, which certifies the
    proposal; any other node is bisected.  A bisected node may steer its
    bisection with an estimate of the root in `_root(delta)`, as the
    Gaussian does; elsewhere `_root` is None.  A node whose slope in x =
    e^eps lies in [-1, 0], as that of every true privacy profile does,
    gives that slope, from the right, in `slope`: the Gaussian, Points
    and Pld nodes.  On any other node `slope` is None, and a selection
    bound, which reads its eps1 off the slope, refuses it.
    """

    slope = None
    _root = None

    def __call__(self, eps):
        return self._at(eps)

    def inverse(self, delta, floor=0.0):
        """Least eps >= floor at which the node is at most delta (> 0),
        within BISECT_TOL above it where the node is bisected (the
        Gaussian's bisection probes only near its Newton root), or a value
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
    halves to BISECT_TOL or to adjacent floats.

    A node with a root estimate (`_root`) is first evaluated just either
    side of it.  Where those two values straddle delta, the same doubling
    and halving run, but an end or midpoint outside the straddle is taken
    to pass or fail without a probe: the answer is the plain search's
    wherever the node is monotone outside the straddle, and an answer
    taken unprobed is certified by one evaluation.  Where there is no
    estimate, the two values do not straddle delta or the certification
    fails, the plain search runs, probe for probe.  Either way the answer
    up to EPS_CAP is certified."""
    known = _straddle(node, delta)
    if known is not None:
        eps = _doubling_and_halving(node, delta, floor, known)
        # an answer at or above the straddle was taken unprobed
        if not known[1] <= eps <= EPS_CAP or node(eps) <= delta:
            return eps
    return _doubling_and_halving(node, delta, floor, UNKNOWN)


def _straddle(node, delta):
    """(x - w, x + w) around the node's root estimate x for delta, with
    w = _STRADDLE * max(1, |x|), where the node is above delta at x - w
    and at most delta at x + w; None where the node gives no estimate or
    its values there do not straddle delta."""
    x = node._root(delta) if node._root is not None else None
    if x is None:
        return None
    w = _STRADDLE * max(1.0, abs(x))
    if node(x - w) > delta and node(x + w) <= delta:
        return x - w, x + w
    return None


def _doubling_and_halving(node, delta, floor, known):
    # `_bisect`'s search, with an eps at or below known[0] taken to fail
    # and one at or above known[1] to pass, without a probe
    a, b = known

    def passes(eps):
        return eps >= b or (eps > a and node(eps) <= delta)

    lo, hi = floor, floor + max(1.0, math.ulp(floor))
    while not passes(hi):
        if hi >= EPS_CAP:
            return math.inf
        lo, hi = hi, min(floor + 2 * (hi - floor), EPS_CAP)
    return halve(lambda eps: node(eps) <= delta, lo, hi, BISECT_TOL, known=known)[1]


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


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _check_twice_square(sigma):
    """Refuse a sigma whose 2 sigma**2 or its reciprocal leaves the float
    range: the Gaussian loss, moment and closed-form formulas divide by it."""
    twice_var = 2 * sigma * sigma
    if not 0 < twice_var < math.inf or 1 / twice_var == math.inf:
        raise ValueError(f"2 sigma**2 is out of float range, got sigma={sigma}")


@dataclass(frozen=True)
class PointDP:
    """A single (eps, delta) guarantee."""

    eps: float
    delta: float

    def __post_init__(self):
        if not self.eps >= 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0,1], got {self.delta}")


_ORDERS = tuple([1 + k / 10 for k in range(1, 91)] + [float(a) for a in range(11, 257)])

# the order-only parts of the Renyi conversions, read-only: the orders,
# alpha - 1, (alpha-1) log(1 - 1/alpha) and log(alpha).  The log terms are
# kept apart so that rdp_to_dp sums them in the order of its per-order formula
_ORDER_ARRAY = np.array(_ORDERS)
_AM1 = _ORDER_ARRAY - 1
_LOG_FRAC = _AM1 * np.log1p(-1 / _ORDER_ARRAY)
_LOG_A = np.log(_ORDER_ARRAY)
for _terms in (_ORDER_ARRAY, _AM1, _LOG_FRAC, _LOG_A):
    _terms.flags.writeable = False


def default_orders():
    """Shared grid of Renyi orders: 1.1 to 10 in steps of 0.1, then integers to 256."""
    return _ORDERS


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """Renyi curve as data: `values[i]` bounds eps at order
    `default_orders()[i]`, and is +inf where the curve bounds nothing.

    `values` is a read-only float64 array of one value per order.  Calling
    the curve looks an order up on the grid and refuses any other order.
    Equality is identity.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != _ORDER_ARRAY.shape:
            raise ValueError(f"{vals.shape} values for {len(_ORDERS)} orders")
        if np.isnan(vals).any():
            bad = _ORDERS[int(np.argmax(np.isnan(vals)))]
            raise ValueError(f"Renyi curve is NaN at order {bad:g}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, alpha):
        try:
            return float(self.values[_ORDERS.index(alpha)])
        except ValueError:
            raise ValueError(f"order {alpha:g} is not on the curve's grid") from None


def gaussian_rdp_curve(sigma, sensitivity=1.0):
    """Renyi curve alpha -> alpha * sensitivity^2 / (2 sigma^2) of the Gaussian mechanism."""
    _check_positive(sigma=sigma, sensitivity=sensitivity)
    try:
        c = sensitivity**2 / (2 * sigma**2)
    except (OverflowError, ZeroDivisionError):
        c = math.inf
    # the curve's largest value, at the last order, must be a float too
    if c * _ORDERS[-1] == math.inf:
        raise ValueError(f"sensitivity**2 / (2 sigma**2) is out of float range, "
                         f"got sensitivity={sensitivity}, sigma={sigma}")
    return RdpCurve(_ORDER_ARRAY * c)


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
            exp = np.exp(self.eps)
        # (e^eps_i, delta_i) as floats: on a handful of points numpy's
        # dispatch costs more than the arithmetic
        object.__setattr__(self, "_cones", list(zip(exp.tolist(), self.delta.tolist())))
        # the largest eps_i, past which the curve is flat, if every e^eps_i is finite
        object.__setattr__(self, "_top", float(self.eps[-1]) if math.isfinite(exp[-1]) else None)

    # the unclipped minimum over the points: `_below` takes x = e^min(eps,
    # top), `_past` takes eps and also returns which points lie above it
    def _below(self, x):
        # e - x is positive wherever e > x, so each term is numpy's
        # delta + maximum(e - x, 0.0), bit for bit
        return min(d + (e - x if e > x else 0.0) for e, d in self._cones)

    def _past(self, eps):
        # e^eps_i overflows, so the gap above eps is e^eps expm1(eps_i - eps);
        # an infinite gap is a term clipped to 1, as it should be.  e^eps is
        # floored at the least subnormal, so that below eps = -745 the gap
        # is inf and not 0 * inf.  A NaN eps puts every point above it, so
        # the NaN reaches the clip.
        above = ~(self.eps <= eps)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.maximum(np.exp(eps), _TINY) * np.expm1(self.eps - eps)
        return self.delta + np.where(above, gap, 0.0), above

    def _at(self, eps):
        if self._top is None:
            return clip_delta(float(self._past(eps)[0].min()))
        if eps != eps:
            # every comparison with a NaN fails, so _below would drop it
            return clip_delta(eps)
        return clip_delta(self._below(math.exp(min(eps, self._top))))

    def slope(self, eps):
        """The slope in e^eps from the right: -1 where a least cone still
        falls at eps (on a tie, the falling one), 0 where the least is flat
        or clipped at 1."""
        if self._top is None:
            terms, above = self._past(eps)
            least = terms.min()
            slope = -1.0 if (above & (terms == least)).any() else 0.0
        else:
            x = math.exp(min(eps, self._top))
            least, slope = min((d + (e - x if e > x else 0.0), -1.0 if e > x else 0.0)
                               for e, d in self._cones)
        return slope if least <= 1.0 else 0.0

    def _inverse(self, delta, floor):
        # point i certifies delta from e^eps = e^eps_i - (delta - delta_i)
        # on, when delta_i <= delta; the least such eps wins.  Past e^709
        # the exponentials overflow, and the curve is bisected
        if self._top is None:
            return None
        gaps = [e - (delta - d) for e, d in self._cones if d <= delta]
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
    """min(1, factor * base(eps - shift)).

    With positive_eps_only the profile is 1 at eps <= 0: a mechanism
    that may release nothing certifies nothing there.
    """

    base: PrivacyProfile
    factor: float
    shift: float = 0.0
    positive_eps_only: bool = False

    def _at(self, eps):
        if self.positive_eps_only and eps <= 0:
            return 1.0
        return min(1.0, self.factor * self.base(eps - self.shift))

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


def rdp_to_dp(curve, eps):
    """Delta implied by a Renyi curve at eps, a float or a 1-d array.

    Uses delta = exp((alpha-1)(eps' - eps)) / alpha * (1 - 1/alpha)^(alpha-1)
    minimized over the orders, clipped to [0,1]; an order at eps' = +inf
    gives +inf and drops out.  A float eps
    (an np.float64 too) skips the round trip through a 0-d array; both
    kinds run the same in-place steps, to the same bits.
    """
    # a NaN eps would read as delta 1: fmin(x, 0) is 0 at a NaN x
    if isinstance(eps, float):
        if eps != eps:
            raise ValueError("eps is NaN")
        e = eps
    else:
        e = np.asarray(eps, dtype=float)
        if np.isnan(e).any():
            raise ValueError("eps is NaN")
        e = e[..., None]
    # past the largest float a term is +-inf, which is delta 1 or 0 as it should be
    with np.errstate(over="ignore"):
        log_d = curve.values - e
        log_d *= _AM1
        log_d += _LOG_FRAC
        log_d -= _LOG_A
    d = np.exp(np.fmin(log_d.min(axis=-1), 0.0))
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True, eq=False)
class Renyi(PrivacyProfile):
    """A Renyi curve as a profile, through rdp_to_dp, inverted in closed
    form."""

    curve: RdpCurve

    def _at(self, eps):
        return rdp_to_dp(self.curve, eps)

    def _inverse(self, delta, floor):
        # order alpha certifies delta from eps(alpha) + (log(1/delta) +
        # (alpha-1) log(1-1/alpha) - log(alpha))/(alpha-1) on; the least
        # such eps wins, +inf where no order bounds anything
        cand = self.curve.values + (-math.log(delta) + _LOG_FRAC - _LOG_A) / _AM1
        return max(float(np.min(cand)), floor)


def rdp_profile(curve):
    """The Renyi node of a curve."""
    return Renyi(curve)


def epsilon_for_delta(profile, delta_target):
    """Smallest eps >= 0 at which the profile drops to delta_target.

    0 if the profile is already there at eps = 0.  Otherwise the node's
    own inverse answers: Points, Pld and Renyi in closed form, Scaled
    through its base at delta_target/factor, and a Gaussian (and any node
    without its own) by bisection, within BISECT_TOL above the true value;
    the Gaussian's bisection evaluates the leaf only about its Newton
    root, and ends on the plain bisection's bits.
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
