"""The oracles' array sign scan and compiled quadpack and Brent wrappers
keep every bit of the scalar scan over scipy's public functions.

`_positive_part_integral` evaluates its integrand once on the whole scan
grid, and `oracles.quad` and `oracles.brentq` call scipy's compiled
routines without the `scipy.integrate` and `scipy.optimize` packages.
The reference below is the scalar scan they replaced: one Python call
per grid point, then `scipy.optimize.brentq` and `scipy.integrate.quad`.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privsel import oracles
from privsel.countdist import Binomial, Poisson, TruncNegBinomial
from privsel.oracles import (
    gaussian_pair,
    hs_divergence_quadrature,
    selection_exact_divergence,
    subsampled_gaussian_pair,
)

BITS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def scalar_positive_part_integral(f, lo, hi):
    xs = np.linspace(lo, hi, 4097)
    vals = np.array([float(f(x)) for x in xs])
    pos = vals > 0
    edges = [lo]
    for i in range(len(xs) - 1):
        if pos[i] != pos[i + 1]:
            try:
                root = scipy.optimize.brentq(f, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16)
            except ValueError:
                root = 0.5 * (xs[i] + xs[i + 1])
            edges.append(root)
    edges.append(hi)

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            total += scipy.integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-12, limit=300)[0]
    return max(0.0, total)


def scalar_hs(pair, eps):
    ee = math.exp(eps)
    return scalar_positive_part_integral(
        lambda x: pair.pdf_p(x) - ee * pair.pdf_q(x), pair.lo, pair.hi)


def scalar_selection(pair, dist, eps):
    ee = math.exp(eps)

    def f(y):
        a = pair.pdf_p(y) * dist.pgf_deriv(float(pair.cdf_p(y)))
        b = pair.pdf_q(y) * dist.pgf_deriv(float(pair.cdf_q(y)))
        return a - ee * b

    return scalar_positive_part_integral(f, pair.lo, pair.hi)


def same_bits_as_scipy():
    """Patches of oracles.quad and oracles.brentq that check each call's
    answer against scipy's public function, bit for bit."""
    quad, brentq = oracles.quad, oracles.brentq

    def checked_quad(func, a, b, **kw):
        got = quad(func, a, b, **kw)
        assert [x.hex() for x in got] == [
            float(x).hex() for x in scipy.integrate.quad(func, a, b, **kw)]
        return got

    def checked_brentq(f, a, b, **kw):
        got = brentq(f, a, b, **kw)
        assert got.hex() == scipy.optimize.brentq(f, a, b, **kw).hex()
        return got

    return (mock.patch.object(oracles, "quad", checked_quad),
            mock.patch.object(oracles, "brentq", checked_brentq))


pairs = st.one_of(
    st.builds(lambda shift, sigma: gaussian_pair(0.0, shift, sigma),
              st.floats(0.1, 2.0), st.floats(0.5, 8.0)),
    st.builds(subsampled_gaussian_pair, st.floats(0.01, 0.9), st.floats(0.5, 4.0),
              st.sampled_from(["remove", "add"])),
)
counts = st.one_of(
    st.builds(TruncNegBinomial, st.floats(0.0, 3.0), st.floats(0.02, 0.9)),
    st.builds(Binomial, st.integers(1, 60), st.floats(0.05, 0.95)),
    st.builds(Poisson, st.floats(0.5, 30.0)),
)
epsilons = st.floats(0.0, 4.0)


@BITS
@given(pair=pairs, eps=epsilons)
def test_hs_divergence_keeps_the_scalar_scans_bits(pair, eps):
    quad, brentq = same_bits_as_scipy()
    with quad, brentq:
        got = hs_divergence_quadrature(pair, eps)
    assert got.hex() == scalar_hs(pair, eps).hex()


@BITS
@given(pair=pairs, dist=counts, eps=epsilons)
def test_selection_divergence_keeps_the_scalar_scans_bits(pair, dist, eps):
    assume(eps > 0 or dist.pmf(0) == 0)
    quad, brentq = same_bits_as_scipy()
    with quad, brentq:
        got = selection_exact_divergence(pair, dist, eps)
    assert got.hex() == scalar_selection(pair, dist, eps).hex()


@pytest.mark.parametrize("dist", [TruncNegBinomial(1.5, 0.2), Binomial(20, 0.3),
                                  Poisson(4.0)], ids=repr)
def test_pgf_deriv_on_an_array_matches_each_float(dist):
    z = np.linspace(0.0, 1.0, 101)
    got = dist.pgf_deriv(z)
    assert got.shape == z.shape
    # the scan only reads signs, so an array may round within an ulp or two
    np.testing.assert_allclose(got, [dist.pgf_deriv(float(x)) for x in z],
                               rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="got 1.5"):
        dist.pgf_deriv(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        dist.pgf_deriv(np.array([0.5, np.nan]))


def test_poisson_pgf_deriv_of_a_float_keeps_math_exp():
    # np.exp rounds some of these otherwise, which moves the bits of
    # selection_exact_divergence on Poisson counts
    dist = Poisson(10.0)
    for z in np.linspace(0.0, 1.0, 101).tolist():
        assert dist.pgf_deriv(z) == 10.0 * math.exp(10.0 * (z - 1))


def hs_integrand():
    pair = gaussian_pair(0.0, 1.0, 4.0)
    return lambda x: pair.pdf_p(x) - math.e * pair.pdf_q(x), pair.lo, pair.hi


def test_quad_warns_where_quadpack_stops_short():
    f, lo, hi = hs_integrand()
    with pytest.warns(UserWarning):
        value, _ = oracles.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert value == scipy.integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12,
                                             limit=1)[0]


def test_quad_refuses_an_invalid_limit():
    f, lo, hi = hs_integrand()
    with pytest.raises(ValueError):
        oracles.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=0)


def test_brentq_refuses_ends_of_one_sign_and_nan():
    with pytest.raises(ValueError):
        oracles.brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(ValueError, match="NaN"):
        oracles.brentq(lambda x: x if x < 0.25 else math.nan, -1.0, 1.0,
                       xtol=1e-14, rtol=8.9e-16)
    assert oracles.brentq(lambda x: x * x - 2, 0.0, 2.0, xtol=1e-14,
                          rtol=8.9e-16) == pytest.approx(math.sqrt(2), rel=1e-15)
