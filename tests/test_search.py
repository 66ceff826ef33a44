"""The shared monotone searches against the loops they replaced.

Each reference below is a copy of a halving loop as it stood in its own
module.  On random monotone thresholds the shared routine, and each
caller built on it, must end on the same bracket and probe the same
points in the same order (`_binomial_eps1_min` halves only on a base
without a slope claim).  The float loops of `_binomial_eps1_min` and
`_solve_success` probed the midpoint once more after it had rounded onto
an end, a probe whose answer was already known; that trailing repeat is
the only probe the routines leave out.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from privsel import _search, _special, countdist, presets, profiles, selection
from privsel.countdist import Poisson
from privsel.errors import InfeasibleMeanError, NoAdmissibleEps1Error
from privsel.gaussian import gaussian_profile
from privsel.profiles import BISECT_TOL, EPS_CAP, PrivacyProfile
from privsel.selection import EPS1_CAP

RNG_SEEDS = range(4)


def recording(pred, probes):
    def probe(x):
        probes.append(x)
        return pred(x)
    return probe


def same_probes(new, old, ends):
    """new is old, or old less a trailing probe at one of `ends`."""
    return new == old or (new == old[:-1] and old[-1] in ends)


# -- references: the halving loops as they were --

def old_profiles_halving(pred, lo, hi):
    # profiles._bisect
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def old_capped_halving(pred, lo, hi, steps):
    # selection._binomial_eps1_min (80 steps), countdist._solve_success (90)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        step = (lo, mid) if pred(mid) else (mid, hi)
        if step == (lo, hi):
            break
        lo, hi = step
    return lo, hi


def old_max_passing(ok, lo, cap):
    # presets._max_passing
    if not ok(lo):
        return 0
    hi = 2 * lo
    while hi <= cap and ok(hi):
        lo, hi = hi, 2 * hi
    if hi > cap:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def old_poisson_search(pred, rate):
    # Poisson.support_upper, with pred(k) = gammainc(k + 1, rate) <= beyond
    lo, hi = -1, max(1, math.ceil(rate))
    while not pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def log_uniform(rng, lo_exp, hi_exp):
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


# -- the routines --

@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_halve_to_a_tolerance_matches_the_profiles_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        # brackets near 0, where BISECT_TOL binds, and past 2**33, where
        # adjacent floats lie wider apart than it
        lo = float(rng.choice([0.0, -1e21, 2.0**40, -3.5]))
        width = max(float(rng.choice([1.0, 1e6, 2.0**30])), math.ulp(lo))
        hi = lo + width
        t = lo + float(rng.uniform(0.0, 1.0)) * width
        pred = (lambda x, t=t: x >= t)
        new, old = [], []
        got = _search.halve(recording(pred, new), lo, hi, BISECT_TOL)
        assert got == old_profiles_halving(recording(pred, old), lo, hi)
        assert new == old


@pytest.mark.parametrize("steps", [80, 90])
@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_halve_under_a_step_cap_matches_the_capped_loops(seed, steps):
    rng = np.random.default_rng(seed)
    capped = adjacent = 0
    for _ in range(300):
        hi = float(2.0 ** rng.integers(0, 7))
        t = log_uniform(rng, -25, math.log10(hi))
        pred = (lambda x, t=t: x >= t)
        new, old = [], []
        got = _search.halve(recording(pred, new), 0.0, hi, steps=steps)
        assert got == old_capped_halving(recording(pred, old), 0.0, hi, steps)
        assert same_probes(new, old, got)
        if math.nextafter(got[0], math.inf) == got[1]:
            adjacent += 1
        else:
            # the cap binds only where adjacent floats near the root lie
            # closer than hi / 2**steps: below about 4e-9 for 80 steps from 1
            assert len(new) == steps and t < hi * 2.0 ** (53 - steps)
            capped += 1
    assert capped > 50 and adjacent > 50


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_fig8_step_search_matches_its_old_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        lo = int(rng.integers(1, 4))
        cap = int(rng.choice([presets.FIG8_STEPS_CAP, int(rng.integers(1, 5000)), 10**12]))
        # a t at or below lo fails the first probe
        t = int(rng.choice([rng.integers(0, 5), rng.integers(0, 1 << 22)]))
        ok = (lambda n, t=t: n < t)
        new, old = [], []
        got = presets._max_passing(recording(ok, new), lo, cap)
        assert got == old_max_passing(recording(ok, old), lo, cap)
        assert new == old


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_gallop_without_a_cap_matches_the_poisson_search(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        rate = log_uniform(rng, -3, 6)
        t = int(rng.integers(0, 4 * math.ceil(rate) + 3))
        pred = (lambda k, t=t: k >= t)
        new, old = [], []
        got = _search.gallop(recording(pred, new), -1, max(1, math.ceil(rate)))
        assert got == old_poisson_search(recording(pred, old), rate) == (t - 1, t)
        assert new == old


def test_gallop_returns_a_bracket_past_its_cap_unhalved():
    probes = []
    assert _search.gallop(recording(lambda n: n >= 1000, probes), 1, 2, cap=100) == (64, 128)
    assert probes == [2, 4, 8, 16, 32, 64]


def test_search_module_loads_the_stdlib_alone():
    # loaded from its file, without the package, which imports numpy
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('search', sys.argv[1]); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "assert not any(m.startswith(('numpy', 'scipy', 'privsel')) for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, _search.__file__], check=True)


# -- the callers, against full copies of their old forms --

class Step(PrivacyProfile):
    """1 below `at` and 0 from it on; records each eps it is evaluated at."""

    def __init__(self, at, calls):
        self.at, self.calls = at, calls

    def _at(self, eps):
        self.calls.append(eps)
        return 1.0 if eps < self.at else 0.0


def old_bisect(node, delta, floor):
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


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_profiles_bisect_is_its_old_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        floor = float(rng.choice([0.0, -1e21, -1e30, 3.0]))
        at = float(rng.choice([floor + rng.uniform(0, 50), 5.0, 2e4]))
        new, old = [], []
        got = profiles._bisect(Step(at, new), 0.5, floor)
        assert got == old_bisect(Step(at, old), 0.5, floor)
        assert new == old


def old_binomial_eps1_min(base, n, p):
    odds = p / (1.0 - p)

    def g(e1):
        return e1 - math.log1p(odds * base(e1))

    if g(0.0) >= 0:
        return 0.0
    hi = 1.0
    while g(hi) < 0 and hi < EPS1_CAP:
        hi *= 2
    if g(hi) < 0:
        raise NoAdmissibleEps1Error("none")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if g(mid) < 0 else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return hi


class Recorded(PrivacyProfile):
    """A base's values and slope, each eps it is evaluated at recorded."""

    def __init__(self, base, calls):
        self.base, self.calls = base, calls

    def _at(self, eps):
        self.calls.append(eps)
        return self.base(eps)

    def slope(self, eps):
        return self.base.slope(eps)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_binomial_eps1_min_is_its_old_loop(seed, monkeypatch):
    # where Newton's method does not settle, the threshold is the halving
    # loop's, probe for probe
    monkeypatch.setattr(selection, "_newton_threshold", lambda base, odds: None)
    rng = np.random.default_rng(seed)
    tiny = 0
    for _ in range(60):
        prof = gaussian_profile(float(rng.uniform(0.3, 10.0)))
        # p down to 1e-15 puts the threshold below 4e-9, where the 80-step cap binds
        p = log_uniform(rng, -15, math.log10(0.99))
        new, old = [], []
        got = selection._binomial_eps1_min(Recorded(prof, new), 10, p)
        want = old_binomial_eps1_min(recording(prof, old), 10, p)
        assert got.hex() == want.hex()
        # the old loop's repeat probe lands on an end already probed
        assert same_probes(new, old, old[:-1])
        tiny += 0 < got < 4e-9
    assert tiny > 5


def old_solve_success(shape, m):
    lo = min(0.5, 1 / m)
    while countdist._negbin_mean(shape, lo) < m:
        lo /= 10
        if lo < 1e-280:
            raise InfeasibleMeanError("out of reach")
    hi = 1 - 1e-12
    if countdist._negbin_mean(shape, hi) > m:
        raise InfeasibleMeanError("out of reach")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if countdist._negbin_mean(shape, mid) > m else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_solve_success_is_its_old_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    real = countdist._negbin_mean
    probes = []

    def mean(shape, g):
        probes.append(g)
        return real(shape, g)

    monkeypatch.setattr(countdist, "_negbin_mean", mean)
    solved = 0
    for _ in range(200):
        shape = float(rng.choice([rng.uniform(-0.99, 0.0), rng.uniform(0.0, 5.0), 0.0]))
        # success near 1/m: m up to 1e12 leaves the 90-step cap to bind
        m = 1.0 + log_uniform(rng, -3, 12)
        answers = []
        for solve in (countdist._solve_success, old_solve_success):
            probes.clear()
            try:
                answers.append(solve(shape, m).hex())
            except InfeasibleMeanError:
                answers.append(None)
            answers.append(probes[:])
        got, new, want, old = answers
        assert got == want
        assert same_probes(new, old, old[:-1])
        solved += got is not None
    assert solved > 150


@pytest.mark.parametrize("rate", [1e-3, 0.5, 3.0, 10.0, 1234.5, 1e6])
@pytest.mark.parametrize("tail", [1e-16, 1e-12, 1e-3, 0.5, 1.0])
def test_poisson_support_upper_is_its_old_loop(rate, tail, monkeypatch):
    real = _special.gammainc
    probes = []

    def gammainc(a, x):
        probes.append(a)
        return real(a, x)

    monkeypatch.setattr(_special, "gammainc", gammainc)
    got = Poisson(rate).support_upper(tail)
    new = probes[:]
    probes.clear()
    beyond = 1 - (1 - tail)
    k = old_poisson_search(lambda k: _special.gammainc(k + 1, rate) <= beyond, rate)[1]
    if k >= 1 and _special.gammaincc(k, rate) >= 1 - tail:
        k -= 1
    k += 2
    while _special.gammainc(k + 1, rate) > tail:
        k += 1
    assert got == k
    assert new == probes
