"""Exact library answers of a dozen selection and noisy-argmax queries.

Each entry pins, as `float.hex`, the eps that `epsilon_for_delta` reads
off the tuned profile and, for a best-of-K bound, the eps1 the optimizer
chose and the shift it induced.  A change to how profiles are evaluated
or how eps1 is searched must leave every bit of these in place.
"""

import math

import pytest

from privsel import countdist
from privsel.profiles import epsilon_for_delta, gaussian_profile, profile_from_points
from privsel.rnm import rnm_composition_profile, rnm_profile
from privsel.selection import (
    select_binomial_profile,
    select_negbin_profile,
    select_poisson_profile,
)

POINTS = [(0.5, 1e-3), (1.5, 1e-5), (3.0, 1e-9)]
# e^750 overflows a float, so this base takes the past-the-exp-range form
POINTS_PAST_EXP_RANGE = [(0.5, 1e-3), (2.0, 1e-7), (750.0, 0.0)]


def negbin(base, eta, m):
    gamma = countdist.from_expected("negbin", m, shape=eta).success
    return select_negbin_profile(base, eta, gamma)


# name: (build the selection bound, delta target, (eps, eps1, shift) as hex)
SELECTION = {
    "negbin-eta0-sigma0.8": (
        lambda: negbin(gaussian_profile(0.8), 0.0, 10.0), 1e-6,
        ("0x1.232ac40000000p+3", "0x1.9d3804bbba46cp+0", "0x1.1b1a5f08821bep+1")),
    "negbin-eta0.5-sigma4": (
        lambda: negbin(gaussian_profile(4.0), 0.5, 300.0), 1e-6,
        ("0x1.406e980000000p+1", "0x1.66031909889b0p-1", "0x1.2922b4e4e4e8ep+0")),
    "negbin-eta1-sigma9": (
        lambda: negbin(gaussian_profile(9.0), 1.0, 50.0), 1e-8,
        ("0x1.274d600000000p+0", "0x1.c4cc3e0c9c28cp-3", "0x1.0cffaac078d7ap-1")),
    "negbin-eta2-sigma4": (
        lambda: negbin(gaussian_profile(4.0), 2.0, 20.0), 1e-5,
        ("0x1.2ad2800000000p+1", "0x1.26d8b79dbdb3dp-2", "0x1.3c76763d3ff63p+0")),
    "binomial-sigma4": (
        lambda: select_binomial_profile(gaussian_profile(4.0), 100, 0.1), 1e-6,
        ("0x1.1c12680000000p+1", "0x1.576c69bcb128ep-7", "0x1.099dd9c7f105ap+0")),
    "binomial-sigma9": (
        lambda: select_binomial_profile(gaussian_profile(9.0), 40, 0.5), 1e-7,
        ("0x1.c2a9400000000p+0", "0x1.f63d12485c270p-6", "0x1.320d372418278p+0")),
    "poisson-sigma0.8": (
        lambda: select_poisson_profile(gaussian_profile(0.8), 3.0), 1e-6,
        ("0x1.ffcba00000000p+2", "0x0.0p+0", "0x1.67723bf528d10p+0")),
    "poisson-sigma9": (
        lambda: select_poisson_profile(gaussian_profile(9.0), 100.0), 1e-6,
        ("0x1.3ec5e40000000p+2", "0x0.0p+0", "0x1.1b8be26a5794bp+2")),
    "points-negbin": (
        lambda: negbin(profile_from_points(POINTS), 1.0, 30.0), 1e-6,
        ("0x1.023b5c0000000p+2", "0x1.0000000000000p-1", "0x1.08ed6f63fe08cp+0")),
    "points-negbin-past-exp-range": (
        lambda: negbin(profile_from_points(POINTS_PAST_EXP_RANGE), 0.5, 10.0), 1e-6,
        ("0x1.61bd300000000p+1", "0x1.0000000000000p-1", "0x1.86f4a4d0ee60dp-1")),
}

# name: (build the noisy-argmax profile, delta target, eps as hex)
RNM = {
    "rnm-1-round-sigma4": (
        lambda: rnm_profile(gaussian_profile(4.0, 2.0), 10), 1e-6,
        "0x1.3ec3700000000p+1"),
    "rnm-3-rounds-sigma9": (
        lambda: rnm_composition_profile(
            gaussian_profile(9.0, 2.0 * math.sqrt(3)), 5, 3), 1e-6,
        "0x1.07c8200000000p+1"),
}


@pytest.mark.parametrize("name", SELECTION)
def test_selection_answer_is_pinned(name):
    build, delta, pinned = SELECTION[name]
    res = build()
    eps = epsilon_for_delta(res.profile, delta)
    assert (eps.hex(), res.eps1.hex(), res.shift.hex()) == pinned


@pytest.mark.parametrize("name", RNM)
def test_noisy_argmax_answer_is_pinned(name):
    build, delta, pinned = RNM[name]
    assert epsilon_for_delta(build(), delta).hex() == pinned
