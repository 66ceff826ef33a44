"""Answers held to their node's formula at 50 digits in mpmath.

Over seeded random draws, each test measures the largest relative
deficit of a node's answers and asserts it is at most a stated bound
that holds today:
- a delta(eps) answer's deficit is how far it lies below the exact value
  of the node's formula at that eps, where that value is a normal float;
- an eps(delta) answer's deficit is how far it lies below the least eps
  at which the formula is at most delta.  An answer with deficit 0 is
  certified against the formula, not only against the node's computed
  value.

The Renyi node (`rdp_to_dp` and `Renyi.inverse`), on curves on the
shared grid, some of them +inf at some orders: the formula is
    delta(eps) = min(1, min over alpha of exp((alpha-1)(eps(alpha) - eps))
                 (1 - 1/alpha)^(alpha-1) / alpha)
over the grid's float orders, an order at eps(alpha) = +inf dropping out,
and its least eps at delta is the least over alpha of eps(alpha) +
(log(1/delta) + (alpha-1) log(1-1/alpha) - log alpha)/(alpha-1), floored
at 0.  Over the seeds below, at numpy 2.4 on a CPU with AVX-512:
- delta(eps) lies below the formula in 742 of 1,722 answers (float and
  array paths at 861 eps), by at most 8.9e-14 relative;
- eps(delta) lies below the least eps in 80 of 600 answers, by at most
  2.4e-16 relative: the closed form is certified against the computed
  delta, which rounds below the formula.  A rounding rule that makes
  both deficits 0 moves printed values.
"""

import math

import mpmath
import numpy as np
import pytest

from privsel.profiles import (
    EPS_CAP,
    PointDP,
    RdpCurve,
    default_orders,
    gaussian_rdp_curve,
    rdp_profile,
    rdp_to_dp,
)
from privsel.selection import rdp_poisson_curve, rdp_select_negbin, rdp_select_poisson

SEEDS = range(3)
ROUNDS = 40
LEAST_NORMAL = 2.0**-1022
RENYI_DELTA_DEFICIT = 2e-13
RENYI_EPS_DEFICIT = 1e-15

DIGITS = 50
# alpha - 1 and (alpha-1) log(1 - 1/alpha) - log(alpha) at each float order
with mpmath.workdps(DIGITS):
    _AM1 = [mpmath.mpf(a) - 1 for a in default_orders()]
    _CONST = [am1 * mpmath.log(1 - 1 / mpmath.mpf(a)) - mpmath.log(a)
              for a, am1 in zip(default_orders(), _AM1)]


def finite_orders(curve):
    return [(mpmath.mpf(v), am1, c) for v, am1, c in zip(curve.values.tolist(), _AM1, _CONST)
            if v != math.inf]


@mpmath.workdps(DIGITS)
def exact_delta(curve, eps):
    e = mpmath.mpf(eps)
    terms = [am1 * (v - e) + c for v, am1, c in finite_orders(curve)]
    return mpmath.exp(min(terms + [mpmath.mpf(0)]))


@mpmath.workdps(DIGITS)
def exact_eps(curve, delta):
    log_delta = mpmath.log(delta)
    cands = [v + (c - log_delta) / am1 for v, am1, c in finite_orders(curve)]
    return max(min(cands, default=mpmath.inf), mpmath.mpf(0))


@mpmath.workdps(DIGITS)
def deficit(got, exact):
    return float((exact - got) / exact) if got < exact else 0.0


def log_uniform(rng, lo_exp, hi_exp):
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def seeded_curves(rng):
    """A Gaussian base curve, its negbin baseline, a one-point Poisson
    baseline (+inf at the orders its point does not admit), the Poisson
    curve of `--method rdp`, and random values with 20 orders at +inf."""
    base = gaussian_rdp_curve(log_uniform(rng, -0.5, 1.5))
    values = rng.uniform(0.0, 50.0, len(default_orders()))
    values[rng.integers(0, values.size, 20)] = math.inf
    return [
        base,
        rdp_select_negbin(base, float(rng.uniform(-0.9, 3.0)), log_uniform(rng, -4, -0.05)),
        rdp_select_poisson(base, PointDP(float(rng.uniform(0.05, 2.0)), log_uniform(rng, -12, -2)),
                           log_uniform(rng, 0, 3.5)),
        rdp_poisson_curve(base, log_uniform(rng, 0, 3.5)),
        RdpCurve(values),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_renyi_answers_against_the_formula_at_50_digits(seed):
    rng = np.random.default_rng(seed)
    worst_delta = worst_eps = 0.0
    deltas = eps_answers = 0
    for _ in range(ROUNDS):
        for curve in seeded_curves(rng):
            delta = log_uniform(rng, -300, -0.5)
            eps = rdp_profile(curve).inverse(delta)
            if eps <= EPS_CAP:
                eps_answers += 1
                worst_eps = max(worst_eps, deficit(eps, exact_eps(curve, delta)))
            # the float path and the array path at the same eps
            at = [e for e in (eps * rng.uniform(0.5, 1.5), float(rng.uniform(0.0, 30.0)))
                  if e <= EPS_CAP]
            for e, from_array in zip(at, rdp_to_dp(curve, np.array(at)).tolist()):
                exact = exact_delta(curve, e)
                if exact < LEAST_NORMAL:
                    continue
                deltas += 1
                for got in (rdp_to_dp(curve, e), from_array):
                    worst_delta = max(worst_delta, deficit(got, exact))
    # most draws are answered: the bounds are not met vacuously
    assert eps_answers >= ROUNDS * 4 and deltas >= ROUNDS * 6
    assert worst_delta <= RENYI_DELTA_DEFICIT, worst_delta
    assert worst_eps <= RENYI_EPS_DEFICIT, worst_eps
