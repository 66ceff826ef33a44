"""Property tests of the selection and noisy-argmax bounds.

Over random Gaussian noise scales and random negative-binomial, binomial
and Poisson counts, the best-of-K bound is at least the exact divergence
computed by quadrature from the selection output densities; the eps of
the Renyi route for Poisson counts, and its delta at random eps, are
sound against that divergence in both directions; and every best-of-K
and noisy-argmax profile stays in [0, 1] and is non-increasing in eps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel import scenario
from privsel.countdist import Binomial, Poisson, TruncNegBinomial
from privsel.errors import NoAdmissibleEps1Error
from privsel.oracles import gaussian_pair, selection_exact_divergence
from privsel.presets import rdp_poisson_eps
from privsel.profiles import gaussian_profile, gaussian_rdp_curve
from privsel.rnm import rnm_composition_profile, rnm_profile
from privsel.selection import bound_for_count

# one oracle call takes ~20 ms, so the oracle property stays small
PROPS = settings(max_examples=40, deadline=None, database=None, derandomize=True)

sigmas = st.floats(0.5, 10.0)
EPS_GRID = np.linspace(-1.0, 12.0, 53)


@st.composite
def counts(draw):
    """A truncated negative binomial, binomial or Poisson run count."""
    kind = draw(st.sampled_from(("negbin", "binomial", "poisson")))
    if kind == "negbin":
        return TruncNegBinomial(draw(st.floats(-0.9, 3.0)), draw(st.floats(0.01, 0.9)))
    if kind == "binomial":
        return Binomial(draw(st.integers(1, 200)), draw(st.floats(0.01, 0.99)))
    return Poisson(draw(st.floats(0.1, 100.0)))


def bound_or_none(base, dist):
    try:
        return bound_for_count(base, dist).profile
    except NoAdmissibleEps1Error:
        return None


def assert_profile_shape(profile):
    vals = [profile(float(e)) for e in EPS_GRID]
    assert all(0.0 <= v <= 1.0 for v in vals), vals
    assert all(b <= a for a, b in zip(vals, vals[1:])), vals


@PROPS
@given(sigmas, counts(), st.floats(0.05, 6.0))
def test_selection_bound_dominates_exact_divergence(sigma, dist, eps):
    bound = bound_or_none(gaussian_profile(sigma), dist)
    if bound is None:
        return
    exact = selection_exact_divergence(gaussian_pair(0.0, 1.0, sigma), dist, eps)
    assert bound(eps) >= exact - 1e-12


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(st.floats(1.0, 30.0), st.floats(2.0, 2000.0),
       st.floats(-8.0, -3.0).map(lambda x: 10.0**x))
def test_renyi_poisson_eps_is_sound_against_the_exact_divergence(sigma, m, delta):
    # one neighbouring instance of the best-of-K selection over a
    # Poisson(m) run count, in both directions
    eps = rdp_poisson_eps(gaussian_rdp_curve(sigma), m, delta)
    for mu_p, mu_q in ((0.0, 1.0), (1.0, 0.0)):
        pair = gaussian_pair(mu_p, mu_q, sigma)
        assert selection_exact_divergence(pair, Poisson(m), eps) <= delta


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(st.floats(1.0, 30.0), st.floats(2.0, 2000.0), st.floats(0.05, 6.0))
def test_renyi_poisson_delta_is_sound_against_the_exact_divergence(sigma, m, eps):
    # the delta `guarantee --family poisson --method rdp --eps` prints
    profile = scenario.resolve({"kind": "gaussian", "sigma": sigma},
                               {"kind": "poisson", "m": m}, "rdp")[0]
    delta = profile(eps)
    for mu_p, mu_q in ((0.0, 1.0), (1.0, 0.0)):
        pair = gaussian_pair(mu_p, mu_q, sigma)
        assert selection_exact_divergence(pair, Poisson(m), eps) <= delta


@PROPS
@given(sigmas, counts())
def test_selection_profile_is_a_non_increasing_delta(sigma, dist):
    bound = bound_or_none(gaussian_profile(sigma), dist)
    if bound is not None:
        assert_profile_shape(bound)


@PROPS
@given(sigmas, st.integers(1, 10_000), st.integers(1, 16), st.booleans())
def test_rnm_profiles_are_non_increasing_deltas(sigma, candidates, rounds, monotone):
    sens = 1.0 if monotone else 2.0
    assert_profile_shape(rnm_profile(gaussian_profile(sigma, sens), candidates))
    comp = gaussian_profile(sigma, sens * rounds**0.5)
    assert_profile_shape(rnm_composition_profile(comp, candidates, rounds))
