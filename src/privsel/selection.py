"""Guarantees for releasing the best of a random number of private runs.

The tuning mechanism draws K from a count distribution, runs the base
mechanism K times, and releases the highest-scoring output.  Its
hockey-stick divergence at eps is bounded by E[K] times the base delta
evaluated at eps minus a shift.  The count defines the shift as a
function of a free parameter eps1 and the base delta there (its `shift`
method), and eps1 is read off the base's slope in e^eps, so one choice
of eps1 serves every queried eps.  Alongside the profile bounds live
closed-form corollaries, Renyi-divergence baselines, a
guarantee-adjustment helper, and a propose-test-release combiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import halve
from .countdist import Binomial, Poisson, TruncNegBinomial, _check_shape
from .errors import NoAdmissibleEps1Error, UnreachableTargetError
from .profiles import (
    _AM1,
    _ORDER_ARRAY,
    PointDP,
    Points,
    RdpCurve,
    Scaled,
    _check_positive,
    _check_twice_square,
    epsilon_for_delta,
    rdp_to_dp,
)

EPS1_CAP = 50.0
# Newton steps the binomial threshold may take (it settles in about six),
# and the steps away from where it settles that look for g's sign flip
_NEWTON_STEPS = 40
_NUDGES = 8


@dataclass(frozen=True)
class SelectionBoundResult:
    """A selection bound: the output profile and the eps1 it was built at.
    `shift`, subtracted from queried eps values, is the profile's."""

    profile: Scaled
    eps1: float

    @property
    def shift(self):
        return self.profile.shift


def _check_slope(base):
    """Refuse a base whose `slope`, which eps1 is read off, is None, unevaluated."""
    if base.slope is None:
        raise TypeError(f"no selection bound over a {type(base).__name__} base, "
                        f"which states no slope in e^eps")


def _eps_hi(base, eps1_min):
    """The top of the knot rule's range: where the base delta bottoms out
    at 1e-15, capped at EPS1_CAP and at least 1e-3, or the count's
    admissibility threshold eps1_min where that lies higher."""
    try:
        eps_hi = min(epsilon_for_delta(base, 1e-15), EPS1_CAP)
    except UnreachableTargetError:
        eps_hi = EPS1_CAP
    return max(eps_hi, 1e-3, eps1_min)


def optimize_eps1(base, count, eps1_min=0.0):
    """Minimize count.shift(eps1, base(eps1)) over eps1 >= eps1_min, the
    count's admissibility threshold (the binomial's; 0 for the others),
    on a base U whose slope in x = e^eps lies in [-1, 0] (Gaussian, Pld,
    Points; one whose `slope` is None is refused with TypeError, before
    it is evaluated).  The slope settles eps1 without a search:
    - the Poisson shift m (x - 1 + U) and the binomial shift, a log1p of
      p (x - 1) + p U, never fall as eps1 rises, so the threshold
      `eps1_min` wins, with no base evaluation;
    - a negbin shift is (eta+1) log(x + r U) with r = (1-gamma)/gamma.
      On a Gaussian or Pld node x + r U is convex, so it is least where
      its slope 1 + r U' turns non-negative, which its `crossing` finds
      (in closed form on the Gaussian, by halving on the Pld), capped at 50;
    - on a Points node x + r U is a minimum of cones, each linear in x on
      both sides of its point's eps, so the least shift over 0, those eps
      and the range's top wins, the smallest eps1 on a tie.  The range
      tops out where the base delta bottoms out (capped at 50), or at
      `eps1_min` where that lies higher; an eps1 below `eps1_min` scores
      +inf.
    """
    _check_slope(base)
    if isinstance(count, (Poisson, Binomial)):
        return eps1_min
    if not isinstance(base, Points):
        ratio = (1.0 - count.success) / count.success
        return max(base.crossing(ratio, EPS1_CAP), eps1_min)
    eps_hi = _eps_hi(base, eps1_min)

    def score(e1):
        return count.shift(e1, base(e1)) if e1 >= eps1_min else math.inf

    # + 0.0 turns a -0.0 knot into 0.0
    cand = {0.0, eps_hi, *(k + 0.0 for k in base.eps.tolist() if 0.0 <= k <= eps_hi)}
    return min((score(e), e) for e in cand)[1]


def _newton_threshold(base, odds):
    """The least float e1 with g(e1) = e1 - log1p(odds U(e1)) >= 0, where
    g(0) < 0, or None where Newton's method does not settle.

    Newton's method runs from 0, with g' = 1 - odds e^e1 U'(e1) / (1 +
    odds U(e1)) >= 1, until a step is within 4 ulps or no longer halves
    the one before, where the rounding of U takes over from convergence.
    The root is then bracketed by stepping away from there, one ulp and
    then doubling, up to _NUDGES times, until g's sign flips, and the
    bracket is halved to adjacent floats.  None after _NEWTON_STEPS
    steps, or where the steps find no flip."""
    def passes(e1):
        return not e1 - math.log1p(odds * base(e1)) < 0

    e1, last = 0.0, math.inf
    for _ in range(_NEWTON_STEPS):
        u = base(e1)
        grad = 1.0 - odds * math.exp(e1) * base.slope(e1) / (1.0 + odds * u)
        step = (math.log1p(odds * u) - e1) / grad
        e1 += step
        if abs(step) <= 4 * math.ulp(e1) or abs(step) > last / 2:
            break
        last = abs(step)
    else:
        return None
    above = passes(e1)
    step = math.ulp(e1)
    for _ in range(_NUDGES):
        # g(0) < 0, so a step down that reaches 0 flips
        other = max(e1 - step, 0.0) if above else e1 + step
        if passes(other) != above:
            lo, hi = (other, e1) if above else (e1, other)
            return halve(passes, lo, hi)[1]
        step *= 2
    return None


def _binomial_eps1_min(base, n, p):
    """Smallest eps1 with eps1 >= log(1 + p/(1-p) * base(eps1)), the
    admissibility threshold of a Binomial(n, p) count, on a base whose
    slope in e^eps lies in [-1, 0].  There g(eps1) = eps1 - log1p(p/(1-p)
    base(eps1)) rises at slope >= 1, and Newton's method finds its root
    within a few ulps; where Newton does not settle, the bracket from 1,
    doubled until g >= 0, is halved 80 times."""
    odds = p / (1.0 - p)

    def g(e1):
        return e1 - math.log1p(odds * base(e1))

    if g(0.0) >= 0:
        return 0.0
    e1 = _newton_threshold(base, odds)
    if e1 is not None:
        return e1
    hi = 1.0
    while g(hi) < 0 and hi < EPS1_CAP:
        hi *= 2
    if g(hi) < 0:
        raise NoAdmissibleEps1Error(
            f"no admissible eps1 below {EPS1_CAP} for n={n}, p={p}"
        )
    return halve(lambda e1: not g(e1) < 0, 0.0, hi, steps=80)[1]


def bound_for_count(base, dist, eps1=None):
    """Best-of-K bound for K drawn from dist: min(1, E[K] * base(eps - shift)).

    The shift is the count's `shift` at (eps1, base(eps1)), with eps1
    optimized over the admissible range when None, else fixed by the
    caller.  A binomial eps1 must reach the threshold
    log(1 + p/(1-p) * base(eps1)); the other counts admit every eps1 >= 0.
    Binomial and Poisson counts can be zero, so their bounds certify
    nothing at eps <= 0.  The base must state its slope in e^eps, which
    eps1 is read off: a base whose `slope` is None (Renyi, Scaled) is
    refused with TypeError, for a fixed eps1 too, before it is evaluated.
    """
    if not isinstance(dist, (TruncNegBinomial, Binomial, Poisson)):
        raise TypeError(f"no selection bound for {type(dist).__name__}")
    _check_slope(base)
    eps1_min = (_binomial_eps1_min(base, dist.trials, dist.prob)
                if isinstance(dist, Binomial) else 0.0)
    if eps1 is None:
        eps1 = optimize_eps1(base, dist, eps1_min)
    else:
        eps1 = float(eps1)
        if not 0 <= eps1 < math.inf:
            raise ValueError(f"fixed eps1 must be >= 0 and finite, got {eps1}")
    if eps1 < eps1_min:
        raise NoAdmissibleEps1Error(
            f"eps1={eps1:g} is below the admissibility threshold {eps1_min:g}"
        )
    try:
        shift = dist.shift(eps1, base(eps1))
    except OverflowError:
        shift = math.inf
    if shift == math.inf:
        raise ValueError(f"eps1={eps1:g} is too large: the shift it induces "
                         f"overflows a float")
    profile = Scaled(base, dist.mean(), shift,
                     positive_eps_only=not isinstance(dist, TruncNegBinomial))
    return SelectionBoundResult(profile, eps1)


def select_negbin_profile(base, eta, gamma):
    """Best-of-K bound for K truncated negative binomial: the queried eps
    is reduced by the count's shift at (eps1, base(eps1))."""
    return bound_for_count(base, TruncNegBinomial(eta, gamma))


def select_binomial_profile(base, n, p):
    """Best-of-K bound for K ~ Binomial(n, p), valid only above the
    admissibility threshold eps1 >= log(1 + p/(1-p) * base(eps1))."""
    return bound_for_count(base, Binomial(n, p))


def select_poisson_profile(base, m):
    """Best-of-K bound for K ~ Poisson(m); the queried eps is reduced by
    m*(e^eps1 - 1) + m*base(eps1)."""
    return bound_for_count(base, Poisson(m))


def select_negbin_pure(eps_base, eta):
    """Pure-DP special case: a base eps becomes (eta+2) * eps."""
    if not 0 <= eps_base < math.inf:
        raise ValueError(f"eps must be >= 0 and finite, got {eps_base}")
    _check_shape(eta)
    eps = (eta + 2.0) * eps_base
    if eps == math.inf:
        raise ValueError(f"(eta+2)*eps = ({eta:g}+2)*{eps_base:g} overflows float64")
    return eps


def select_negbin_pointwise(point, eta, gamma):
    """Tuned guarantee from a single base point: (eps, delta) becomes
    ((eta+2)*eps + delta/gamma, E[K]*delta)."""
    m = TruncNegBinomial(eta, gamma).mean()
    eps = (eta + 2.0) * point.eps + point.delta / gamma
    if eps == math.inf:
        raise ValueError(f"(eta+2)*eps + delta/gamma overflows float64 at eta={eta:g}, "
                         f"gamma={gamma:g}, eps={point.eps:g}, delta={point.delta:g}")
    return PointDP(eps, min(1.0, m * point.delta))


def select_gdp_eps(sigma, eta, gamma, delta):
    """Closed-form tuned eps for a Gaussian base:
    (eta+2) * (1/(2 sigma^2) + sqrt(2 log(1/(gamma delta))) / sigma) + delta."""
    _check_positive(sigma=sigma)
    _check_twice_square(sigma)
    TruncNegBinomial(eta, gamma)  # the count's own checks of eta and gamma
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    # log(1/(gamma delta)) as a sum: gamma * delta may underflow to 0
    eps = (eta + 2.0) * (
        1.0 / (2.0 * sigma**2)
        + math.sqrt(-2.0 * (math.log(gamma) + math.log(delta))) / sigma
    ) + delta
    if eps == math.inf:
        raise ValueError(f"the closed-form eps overflows float64 at sigma={sigma:g}, "
                         f"eta={eta:g}, gamma={gamma:g}, delta={delta:g}")
    return eps


def rdp_select_negbin(base_rdp, eta, gamma):
    """Renyi baseline for truncated-negative-binomial K.

    Adds to the base curve an order-independent term minimized over the
    orders, plus log(E[K])/(alpha-1).
    """
    dist = TruncNegBinomial(eta, gamma)
    vals = base_rdp.values
    extra = (eta + 1.0) * float(
        np.min((1.0 - 1.0 / _ORDER_ARRAY) * vals + math.log(1.0 / gamma) / _ORDER_ARRAY)
    )
    log_m = math.log(dist.mean())
    return RdpCurve(vals + extra + log_m / _AM1)


def _rdp_poisson_min(base_rdp, eps_hat, delta_hat, m):
    """Renyi baseline for Poisson K from base points (eps_hat, delta_hat):
    at each order alpha, the least of base(alpha) + m delta_hat +
    log(m)/(alpha-1) over the points with e^eps_hat <= 1 + 1/(alpha-1),
    and +inf, a value that bounds nothing, where no point admits alpha."""
    Poisson(m)  # the count's own check of m
    # each cap through math.expm1, as the one-point bound has always taken it
    caps = [math.inf if e == 0 else 1.0 + 1.0 / math.expm1(e) for e in eps_hat.tolist()]
    admits = _ORDER_ARRAY <= np.array(caps)[:, None]
    with np.errstate(over="ignore"):  # an inf product is a value that bounds nothing
        vals = base_rdp.values + (m * delta_hat)[:, None] + math.log(m) / _AM1
    return RdpCurve(np.where(admits, vals, math.inf).min(axis=0))


def rdp_select_poisson(base_rdp, base_point, m):
    """Renyi baseline for Poisson K, valid only at orders alpha with
    e^(base eps) <= 1 + 1/(alpha-1); the curve is +inf at the others, and
    a base eps that admits no order gives a curve that reads delta 1."""
    return _rdp_poisson_min(base_rdp, np.array([base_point.eps]),
                            np.array([base_point.delta]), m)


def rdp_poisson_curve(base_rdp, m):
    """Renyi baseline for Poisson K from the base curve alone: at each
    order, the least rdp_select_poisson curve over 40 base points, eps in
    geomspace(1e-3, 2) and delta read off the base curve there."""
    eps_hat = np.geomspace(1e-3, 2.0, 40)
    return _rdp_poisson_min(base_rdp, eps_hat, rdp_to_dp(base_rdp, eps_hat), m)


def adjust_guarantee(eps1, delta1, eps_hat, eta, gamma, delta):
    """Final guarantee for a base that is both (eps1, delta1)-DP and
    (eps_hat, delta/m)-DP when the run count is truncated negative
    binomial with E[K] = m:
    (eps_hat + (eta+1) * log(e^eps1 + ((1-gamma)/gamma) * delta1), delta).

    m enters through the caller's delta/m certification, not the output
    arithmetic.
    """
    if min(eps1, delta1, eps_hat, delta) < 0:
        raise ValueError("inputs must be non-negative")
    return PointDP(eps_hat + TruncNegBinomial(eta, gamma).shift(eps1, delta1), delta)


def gptr_combine(eps, delta, eps_hat, delta_hat, delta_prime):
    """Propose-test-release combination:
    (eps + eps_hat, delta + delta_hat + delta_prime), delta clipped at 1."""
    if min(eps, delta, eps_hat, delta_hat, delta_prime) < 0:
        raise ValueError("inputs must be non-negative")
    return PointDP(eps + eps_hat, min(1.0, delta + delta_hat + delta_prime))
