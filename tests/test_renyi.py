"""The subsampled-Gaussian Renyi baseline against independent references.

Integer orders are held to a 40-digit mpmath binomial sum.  The
trapezoid pass that serves fractional orders is held to the closed form
at integer orders and to a two-direction adaptive quadrature kept in
this file.  The same quadrature checks, over random instances, that the
remove direction dominates the add direction, which is why privsel.pld
evaluates remove only.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import privsel.pld as pldmod
from privsel.errors import MemoryBudgetError
from privsel.pld import SubsampledGaussianParams, renyi_subsampled_gaussian
from privsel.presets import FIG6_PARAMS, FIG7_PARAMS

PROPS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

CASES = [
    (FIG6_PARAMS.q, FIG6_PARAMS.sigma),
    (FIG7_PARAMS.q, FIG7_PARAMS.sigma),
    (0.01, 1.0),
    (0.2, 5.0),
    (0.5, 0.3),
    (1e-4, 0.3),
    (0.9999, 0.7),
    (1.0, 2.0),
]


def mpmath_renyi(q, sigma, alpha):
    """One-step remove-direction Renyi divergence at an integer order:
    log sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 s^2)) / (a - 1), summed
    at 40 digits from the exact binary values of q and sigma."""
    with mpmath.workdps(40):
        q, s, a = mpmath.mpf(q), mpmath.mpf(sigma), int(alpha)
        total = mpmath.fsum(
            mpmath.binomial(a, k) * (1 - q) ** (a - k) * q**k
            * mpmath.exp(mpmath.mpf(k * (k - 1)) / (2 * s**2))
            for k in range(a + 1))
        return float(mpmath.log(total) / (a - 1))


def remove_loss(t, q, sigma):
    """log((1-q) + q e^x), x = (2t-1)/(2 s^2): the loss of the mixture
    (1-q) N(0,s^2) + q N(1,s^2) against N(0,s^2) at sample t."""
    x = (2 * t - 1) / (2 * sigma**2)
    if x < 700:
        return math.log1p(q * math.expm1(x)) if q < 1 else x
    return x + math.log(q) + math.log1p((1 - q) / q * math.exp(-x))


def quad_renyi(q, sigma, alpha, direction):
    """One-step Renyi divergence of one direction by adaptive quadrature.

    Both moments are expectations under N(0,s^2): remove of
    exp(alpha loss), add of exp((1 - alpha) loss).  While that tilt stays
    inside expm1's range the moment is 1 plus the expectation of
    expm1(tilt), which keeps the digits of a moment near 1; past it the
    log integrand is shifted to its peak on a 2001-point scan."""
    beta = alpha if direction == "remove" else 1 - alpha
    window = alpha + 1 + sigma * math.sqrt(2 * math.log(1e30))
    points = [p for p in (0.0, 1.0, alpha, 1 - alpha) if -window < p < window]
    norm = math.log(sigma * math.sqrt(2 * math.pi))

    def log_g0(t):
        return -0.5 * (t / sigma) ** 2 - norm

    def tilt(t):
        return beta * remove_loss(t, q, sigma)

    def integrate(f):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(f, -window, window, epsabs=0.0, epsrel=1e-12,
                        limit=400, points=points)[0]

    if max(tilt(-window), tilt(window)) < 700:
        excess = integrate(lambda t: math.exp(log_g0(t)) * math.expm1(tilt(t)))
        return math.log1p(excess) / (alpha - 1)
    shift = max(log_g0(t) + tilt(t) for t in np.linspace(-window, window, 2001))
    val = integrate(lambda t: math.exp(log_g0(t) + tilt(t) - shift))
    return (shift + math.log(val)) / (alpha - 1)


@pytest.mark.parametrize("q,sigma", CASES)
@pytest.mark.parametrize("alpha", [2.0, 8.0, 32.0, 128.0, 256.0])
def test_integer_orders_match_exact_binomial_sum(q, sigma, alpha):
    got = renyi_subsampled_gaussian(SubsampledGaussianParams(q, sigma), alpha)
    assert got == pytest.approx(mpmath_renyi(q, sigma, alpha), rel=1e-12, abs=0)


@pytest.mark.parametrize("q,sigma", CASES + [(0.01, 0.1), (0.5, 0.05)])
def test_trapezoid_matches_closed_form_at_integer_orders(q, sigma):
    # the last two cases tilt past expm1's range and take the log form
    for alpha in range(2, 11):
        got = pldmod._log_moment_trapezoid(q, sigma, float(alpha))
        want = pldmod._log_moment_binomial(q, sigma, float(alpha))
        assert got == pytest.approx(want, rel=1e-11, abs=0)


def test_trapezoid_excess_form_loses_digits_only_as_q_over_sigma_shrinks():
    # the excess sums terms of size about alpha q / sigma to a moment
    # excess of about (alpha q / sigma)^2, so rounding costs a relative
    # eps sigma / q, about 7e-11 at q = 1e-4 and sigma = 30, where the
    # divergence itself is about 1e-11
    for alpha in range(2, 11):
        got = pldmod._log_moment_trapezoid(1e-4, 30.0, float(alpha))
        want = pldmod._log_moment_binomial(1e-4, 30.0, float(alpha))
        assert got == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("q,sigma", CASES)
@pytest.mark.parametrize("alpha", [1.1, 1.5, 3.3, 9.9])
def test_fractional_orders_match_two_direction_quadrature(q, sigma, alpha):
    got = renyi_subsampled_gaussian(SubsampledGaussianParams(q, sigma), alpha)
    want = max(quad_renyi(q, sigma, alpha, d) for d in ("remove", "add"))
    assert got == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 20.0])
@pytest.mark.parametrize("alpha", [1.1, 2.5, 7.3, 31.7])
def test_full_batch_identity_at_fractional_orders(sigma, alpha):
    # q = 1 is the plain Gaussian: alpha / (2 sigma^2) per step
    got = renyi_subsampled_gaussian(SubsampledGaussianParams(1.0, sigma, 3), alpha)
    assert got == pytest.approx(3 * alpha / (2 * sigma**2), rel=1e-12, abs=0)


@PROPS
@given(q=st.floats(1e-4, 1.0), sigma=st.floats(0.3, 30.0),
       alpha=st.one_of(st.floats(1.01, 64.0), st.integers(2, 256).map(float)))
def test_remove_direction_dominates_add(q, sigma, alpha):
    remove = quad_renyi(q, sigma, alpha, "remove")
    add = quad_renyi(q, sigma, alpha, "add")
    assert remove >= add - 1e-12 * abs(add), (remove, add)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.0, -math.inf])
def test_order_must_be_finite_and_above_one(alpha):
    params = SubsampledGaussianParams(0.01, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha"):
            renyi_subsampled_gaussian(params, alpha)


def test_trapezoid_refuses_a_grid_over_the_point_budget():
    # step sigma/64 over a window wider than 11 sigma: a tiny sigma would
    # need billions of points
    with pytest.raises(MemoryBudgetError, match="budget"):
        renyi_subsampled_gaussian(SubsampledGaussianParams(0.01, 1e-6), 1.5)
