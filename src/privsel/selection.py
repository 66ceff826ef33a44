"""Guarantees for releasing the best of a random number of private runs.

The tuning mechanism draws K from a count distribution, runs the base
mechanism K times, and releases the highest-scoring output.  Its
hockey-stick divergence at eps is bounded by E[K] times the base delta
evaluated at eps minus a penalty; the penalty depends only on a free
parameter eps1 and the base profile, so one penalty minimization serves
every queried eps.  Alongside the profile bounds live closed-form
corollaries, Renyi-divergence baselines, a guarantee-adjustment helper,
and a propose-test-release combiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .countdist import Binomial, Poisson, TruncNegBinomial
from .errors import EmptyCurveError, NoAdmissibleEps1Error, UnreachableTargetError
from .profiles import (
    PointDP,
    RdpCurve,
    Scaled,
    _check_positive,
    epsilon_for_delta,
)

GRID_POINTS = 200
GRID_LO = 1e-6
EPS1_CAP = 50.0
REFINE_TOL = 1e-6
# the grid's log10 steps and its low end, as np.geomspace forms them
_GRID_K = np.arange(GRID_POINTS, dtype=float)
_LOG_GRID_LO = np.log10(GRID_LO)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SelectionBoundResult:
    """A selection bound: the output profile, the eps1 the optimizer
    settled on, and the induced shift subtracted from queried eps values."""

    profile: Scaled
    eps1: float
    shift: float

    def __post_init__(self):
        if self.eps1 < 0:
            raise ValueError(f"eps1 must be >= 0, got {self.eps1}")


def _golden(f, a, b, tol):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _grid(eps_hi):
    """np.geomspace(GRID_LO, eps_hi, GRID_POINTS), bit for bit, by numpy's
    own arithmetic for it: a linspace of log10 values raised to the
    power 10, with both ends then set exactly."""
    log_hi = np.log10(eps_hi)
    y = _GRID_K * ((log_hi - _LOG_GRID_LO) / (GRID_POINTS - 1)) + _LOG_GRID_LO
    y[-1] = log_hi
    out = np.power(10.0, y)
    out[0], out[-1] = GRID_LO, eps_hi
    return out


def optimize_eps1(base, penalty):
    """Minimize penalty(eps1, base(eps1)) over eps1 >= 0.

    Candidates are 0, a 200-point log-spaced grid up to where the base
    delta bottoms out (capped at 50), any kink locations the profile
    declares, and the penalty's admissibility threshold `eps1_min`.  The
    base and the penalty node are evaluated over all of them in one array
    pass each; the candidates whose array value lies within a small window
    of the least are scored again by the penalty's scalar form, and the
    best of those, the smallest eps1 on a tie, is sharpened by
    golden-section search to 1e-6.  A penalty may return +inf to mark an
    eps1 inadmissible.
    """
    try:
        eps_hi = min(epsilon_for_delta(base, 1e-15), EPS1_CAP)
    except UnreachableTargetError:
        eps_hi = EPS1_CAP
    eps_hi = max(eps_hi, 1e-3)

    cand = np.concatenate(([0.0], _grid(eps_hi), base.knots, [penalty.eps1_min]))
    # + 0.0 turns a -0.0 knot that np.unique kept into 0.0
    cand = np.unique(cand[(0.0 <= cand) & (cand <= eps_hi)]) + 0.0
    deltas = base.on_array(cand)
    vals = penalty.on_array(cand, deltas)

    # The array form only prunes.  It applies the scalar form's IEEE
    # operations in the same order, but numpy's exp, log, expm1 and log1p
    # may each round an ulp or two away from math's.  For Poisson and
    # binomial (sums and products of non-negative terms, log1p of a
    # non-negative argument) the forms then differ by a few ulps of the
    # value; for negbin, whose log may sit near log(1), by that plus
    # (eta+1) times a few ulps of 1, about (eta+1) * 5e-16.  If err bounds
    # that difference, the scalar winner w and the array minimizer c obey
    # array(w) <= scalar(w) + err <= scalar(c) + err <= least + 2 err.
    # The window below holds 2 err while eta+1 < 1000, and for any eta
    # once the least value exceeds 1e-6 (eta+1); every candidate in it is
    # scored again by the scalar form, so the choice is the scalar scan's.
    least = vals.min()
    near = np.flatnonzero(vals <= least + 1e-9 * abs(least) + 1e-12).tolist()
    best_v, best_e, i = min(
        (penalty(e, d), e, j)
        for e, d, j in zip(cand[near].tolist(), deltas[near].tolist(), near)
    )

    lo = float(cand[i - 1]) if i > 0 else best_e
    hi = float(cand[i + 1]) if i + 1 < len(cand) else best_e
    if hi - lo > REFINE_TOL:
        def f(e1):
            return penalty(e1, base(e1))

        refined = _golden(f, lo, hi, REFINE_TOL)
        rv = f(refined)
        if rv < best_v or (rv == best_v and refined < best_e):
            best_e, best_v = refined, rv
    return best_e


@dataclass(frozen=True)
class NegBinPenalty:
    """weight * log(e^eps1 + ratio * delta1), the shift of a truncated
    negative binomial count, with weight eta+1 and ratio (1-gamma)/gamma;
    `negbin_penalty(eta, gamma)` builds it."""

    weight: float
    ratio: float
    eps1_min = 0.0

    def __call__(self, e1, d1):
        return self.weight * math.log(math.exp(e1) + self.ratio * d1)

    def on_array(self, e1, d1):
        with np.errstate(over="ignore"):
            return self.weight * np.log(np.exp(e1) + self.ratio * d1)


def negbin_penalty(eta, gamma):
    """The eps shift of a truncated-negative-binomial count as a function
    of (eps1, delta1): (eta+1) * log(e^eps1 + ((1-gamma)/gamma) * delta1)."""
    return NegBinPenalty(eta + 1.0, (1.0 - gamma) / gamma)


@dataclass(frozen=True)
class BinomialPenalty:
    """(n-1) * log(1 + p (e^eps1 - 1) + p delta1), the shift of a
    Binomial(n, p) count, and +inf below its admissibility threshold
    eps1_min."""

    n: int
    p: float
    eps1_min: float

    def __call__(self, e1, d1):
        if e1 < self.eps1_min:
            return math.inf
        return (self.n - 1.0) * math.log1p(self.p * math.expm1(e1) + self.p * d1)

    def on_array(self, e1, d1):
        with np.errstate(over="ignore"):
            v = (self.n - 1.0) * np.log1p(self.p * np.expm1(e1) + self.p * d1)
        return np.where(e1 < self.eps1_min, math.inf, v)


@dataclass(frozen=True)
class PoissonPenalty:
    """m (e^eps1 - 1) + m delta1, the shift of a Poisson(m) count."""

    m: float
    eps1_min = 0.0

    def __call__(self, e1, d1):
        return self.m * math.expm1(e1) + self.m * d1

    def on_array(self, e1, d1):
        with np.errstate(over="ignore"):
            return self.m * np.expm1(e1) + self.m * d1


def _binomial_eps1_min(base, n, p):
    """Smallest eps1 with eps1 >= log(1 + p/(1-p) * base(eps1)), the
    admissibility threshold of a Binomial(n, p) count."""
    odds = p / (1.0 - p)

    def g(e1):
        return e1 - math.log1p(odds * base(e1))

    if g(0.0) >= 0:
        return 0.0
    hi = 1.0
    while g(hi) < 0 and hi < EPS1_CAP:
        hi *= 2
    if g(hi) < 0:
        raise NoAdmissibleEps1Error(
            f"no admissible eps1 below {EPS1_CAP} for n={n}, p={p}"
        )
    lo = 0.0
    # a step that leaves (lo, hi) as it was would leave it so for good
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if g(mid) < 0 else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return hi


def _count_penalty(base, dist):
    """The penalty node of a count distribution: it maps (eps1,
    base(eps1)) to the shift subtracted from every queried eps, and is
    +inf below its `eps1_min`, the smallest admissible eps1."""
    if isinstance(dist, TruncNegBinomial):
        return negbin_penalty(dist.shape, dist.success)
    if isinstance(dist, Binomial):
        n, p = dist.trials, dist.prob
        return BinomialPenalty(n, p, _binomial_eps1_min(base, n, p))
    if isinstance(dist, Poisson):
        return PoissonPenalty(dist.rate)
    raise TypeError(f"no selection bound for {type(dist).__name__}")


def bound_for_count(base, dist, eps1=None):
    """Best-of-K bound for K drawn from dist: min(1, E[K] * base(eps - shift)).

    The shift is the count's penalty at (eps1, base(eps1)), with eps1
    optimized over the admissible range when None, else fixed by the
    caller.  Binomial and Poisson counts can be zero, so their bounds
    certify nothing at eps <= 0.
    """
    penalty = _count_penalty(base, dist)
    eps1_min = penalty.eps1_min
    if eps1 is None:
        eps1 = optimize_eps1(base, penalty)
    else:
        eps1 = float(eps1)
        if not 0 <= eps1 < math.inf:
            raise ValueError(f"fixed eps1 must be >= 0 and finite, got {eps1}")
    if eps1 < eps1_min:
        raise NoAdmissibleEps1Error(
            f"eps1={eps1:g} is below the admissibility threshold {eps1_min:g}"
        )
    try:
        shift = penalty(eps1, base(eps1))
    except OverflowError:
        shift = math.inf
    if shift == math.inf:
        raise ValueError(f"eps1={eps1:g} is too large: the shift it induces "
                         f"overflows a float")
    profile = Scaled(base, dist.mean(), shift,
                     positive_eps_only=not isinstance(dist, TruncNegBinomial))
    return SelectionBoundResult(profile, eps1, shift)


def select_negbin_profile(base, eta, gamma):
    """Best-of-K bound for K truncated negative binomial: the queried eps
    is reduced by negbin_penalty at (eps1, base(eps1))."""
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
    if eta <= -1:
        raise ValueError(f"eta must exceed -1, got {eta}")
    return (eta + 2.0) * eps_base


def select_negbin_pointwise(point, eta, gamma):
    """Tuned guarantee from a single base point: (eps, delta) becomes
    ((eta+2)*eps + delta/gamma, E[K]*delta)."""
    m = TruncNegBinomial(eta, gamma).mean()
    return PointDP(
        (eta + 2.0) * point.eps + point.delta / gamma,
        min(1.0, m * point.delta),
    )


def select_gdp_eps(sigma, eta, gamma, delta):
    """Closed-form tuned eps for a Gaussian base:
    (eta+2) * (1/(2 sigma^2) + sqrt(2 log(1/(gamma delta))) / sigma) + delta."""
    _check_positive(sigma=sigma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if gamma * delta >= 1:
        raise ValueError("requires gamma * delta < 1")
    return (eta + 2.0) * (
        1.0 / (2.0 * sigma**2)
        + math.sqrt(2.0 * math.log(1.0 / (gamma * delta))) / sigma
    ) + delta


def _rdp_selection_curve(base_rdp, orders, add, mean, keep=None):
    """Renyi baseline base(alpha) + add + log(mean)/(alpha-1) on the base
    curve's orders (`orders`: them as a float array), or on those where
    the boolean mask `keep` holds."""
    log_m = math.log(mean)
    if keep is None:
        return RdpCurve(base_rdp.orders, base_rdp.values + add + log_m / (orders - 1.0))
    kept = orders[keep]
    return RdpCurve(tuple(kept.tolist()), base_rdp.values[keep] + add + log_m / (kept - 1.0))


def rdp_select_negbin(base_rdp, eta, gamma):
    """Renyi baseline for truncated-negative-binomial K.

    Adds to the base curve an order-independent term minimized over the
    curve's own grid, plus log(E[K])/(alpha-1).
    """
    dist = TruncNegBinomial(eta, gamma)
    orders = np.asarray(base_rdp.orders, dtype=float)
    vals = base_rdp.values
    extra = (eta + 1.0) * float(
        np.min((1.0 - 1.0 / orders) * vals + math.log(1.0 / gamma) / orders)
    )
    return _rdp_selection_curve(base_rdp, orders, extra, dist.mean())


def rdp_select_poisson(base_rdp, base_point, m):
    """Renyi baseline for Poisson K, valid only at orders alpha with
    e^(base eps) <= 1 + 1/(alpha-1); inadmissible orders are dropped."""
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    eps_hat, delta_hat = base_point.eps, base_point.delta
    cap = math.inf if eps_hat == 0 else 1.0 + 1.0 / math.expm1(eps_hat)
    orders = np.asarray(base_rdp.orders, dtype=float)
    keep = orders <= cap
    if not keep.any():
        raise EmptyCurveError(
            f"no order admissible for base eps {eps_hat:g}; "
            f"need alpha <= 1 + 1/(e^eps - 1)"
        )
    return _rdp_selection_curve(base_rdp, orders, m * delta_hat, m, keep)


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
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    return PointDP(eps_hat + negbin_penalty(eta, gamma)(eps1, delta1), delta)


def gptr_combine(eps, delta, eps_hat, delta_hat, delta_prime):
    """Propose-test-release combination:
    (eps + eps_hat, delta + delta_hat + delta_prime), delta clipped at 1."""
    if min(eps, delta, eps_hat, delta_hat, delta_prime) < 0:
        raise ValueError("inputs must be non-negative")
    return PointDP(eps + eps_hat, min(1.0, delta + delta_hat + delta_prime))
