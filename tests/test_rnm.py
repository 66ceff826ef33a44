"""Noisy-argmax index-release bounds."""

import math

import numpy as np
import pytest

from privsel.oracles import rnm_exact_divergence
from privsel.profiles import epsilon_for_delta, gaussian_profile, profile_from_points
from privsel.rnm import (
    RnmSpec,
    rnm_composition_profile,
    rnm_gaussian_eps,
    rnm_profile,
)

# 2/sigma^2 + (2/sigma) sqrt(2 log(m/delta)) at sigma=4, m=5, delta=1e-6
RNM_CLOSED_4_5 = 2.902134176664712


def test_closed_form_frozen_and_formula():
    got = rnm_gaussian_eps(4.0, 5, 1e-6)
    assert got == pytest.approx(RNM_CLOSED_4_5, rel=1e-14)
    hand = 2.0 / 16.0 + 0.5 * math.sqrt(2.0 * math.log(5e6))
    assert got == pytest.approx(hand, rel=1e-14)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        rnm_gaussian_eps(0.0, 5, 1e-6)
    with pytest.raises(ValueError):
        rnm_gaussian_eps(1.0, 0, 1e-6)
    with pytest.raises(ValueError):
        rnm_gaussian_eps(1.0, 5, 0.0)
    with pytest.raises(ValueError):
        rnm_gaussian_eps(1.0, 5, 1.0)


def test_profile_is_candidate_scaled_base():
    base = gaussian_profile(4.0, 2.0)
    prof = rnm_profile(base, 5)
    for eps in (0.0, 1.0, 2.5):
        assert prof(eps) == pytest.approx(min(1.0, 5 * base(eps)), rel=1e-14)
    single = rnm_profile(base, 1)
    assert single(1.0) == pytest.approx(base(1.0), rel=1e-14)


def test_profile_path_beats_closed_form():
    sigma, m, delta = 4.0, 5, 1e-6
    prof = rnm_profile(gaussian_profile(sigma, 2.0), m)
    eps_profile = epsilon_for_delta(prof, delta)
    assert eps_profile < rnm_gaussian_eps(sigma, m, delta)


def test_monotone_uses_unit_sensitivity():
    spec = RnmSpec(4, monotone=True, sigma=2.0)
    mono = spec.noise_profile()
    assert mono(1.0) == pytest.approx(gaussian_profile(2.0, 1.0)(1.0), rel=1e-14)
    free = RnmSpec(4, monotone=False, sigma=2.0).noise_profile()
    assert mono(1.0) < free(1.0)


def test_composition_profile_reduces_to_single_round():
    base = gaussian_profile(3.0, 2.0)
    one = rnm_composition_profile(base, 6, 1)
    plain = rnm_profile(base, 6)
    for eps in (0.5, 1.5, 3.0):
        assert one(eps) == pytest.approx(plain(eps), rel=1e-12)


def test_composition_costs_more_rounds():
    sigma, m = 3.0, 6
    one = rnm_profile(gaussian_profile(sigma, 2.0), m)
    four = rnm_composition_profile(gaussian_profile(sigma, 4.0), m, 4)
    for eps in (1.0, 2.0, 3.0):
        assert four(eps) >= one(eps)
    assert four(2.0) > one(2.0)


def test_bound_dominates_exact_oracle():
    mu = np.zeros(3)
    mu_p = np.array([1.0, -1.0, 1.0])
    prof = rnm_profile(gaussian_profile(1.5, 2.0), 3)
    for eps in (0.5, 1.5):
        assert rnm_exact_divergence(mu, mu_p, 1.5, eps) <= prof(eps) + 1e-12


def test_rnm_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        RnmSpec(0, monotone=False, sigma=1.0)
    with pytest.raises(ValueError):
        RnmSpec(3, monotone=False, sigma=0.0)
    with pytest.raises(ValueError):
        rnm_profile(gaussian_profile(1.0, 2.0), 0)
    with pytest.raises(ValueError):
        rnm_composition_profile(gaussian_profile(1.0, 2.0), 3, 0)


def test_composition_factor_past_float_range_is_refused():
    # candidates**rounds overflows a float: no delta below 1 is
    # certifiable, even over a base that is exactly 0 from eps = 2 on
    with pytest.raises(ValueError, match=r"candidates\*\*rounds"):
        rnm_composition_profile(profile_from_points([(2.0, 0.0)]), 10**9, 40)
    assert rnm_profile(profile_from_points([(2.0, 0.0)]), 7)(3.0) == 0.0
