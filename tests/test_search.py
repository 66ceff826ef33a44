"""The shared monotone searches against the loops they replaced.

Each reference below is a copy of a halving loop as it stood in its own
module.  On random monotone thresholds the shared routine, and each
caller built on it, must end on the same bracket and probe the same
points in the same order (`_binomial_eps1_min` halves only where Newton's
method does not settle).  The float loops of `_binomial_eps1_min` and
`_solve_success` probed the midpoint once more after it had rounded onto
an end, a probe whose answer was already known; that trailing repeat is
the only probe the routines leave out.

Two callers steer their halving from a Newton root, through `halve`'s
`known`: the Gaussian leaf's bisection and `_solve_success`.  They must
return the old loops' bits, probing a subsequence of the old loops'
points, and where the steering fails, the old loop's points exactly.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from privsel import _search, _special, countdist, presets, profiles, selection
from privsel.countdist import Poisson
from privsel.errors import InfeasibleMeanError, NoAdmissibleEps1Error, UnreachableTargetError
from privsel.gaussian import gaussian_profile
from privsel.profiles import BISECT_TOL, EPS_CAP, PrivacyProfile, Scaled
from privsel.rnm import rnm_composition_profile
from privsel.selection import EPS1_CAP
from test_inverses import reference_bisection

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


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_halve_with_known_sides_ends_on_the_same_bracket(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        lo = float(rng.choice([0.0, -1e21, 2.0**40, -3.5]))
        hi = lo + max(float(rng.choice([1.0, 1e6, 2.0**30])), math.ulp(lo))
        t = lo + float(rng.uniform(0.0, 1.0)) * (hi - lo)
        # a band about t of up to an eighth of the bracket, or of a few ulps
        width = float(rng.choice([(hi - lo) * 2.0 ** -rng.uniform(3, 60),
                                  math.ulp(t) * rng.integers(1, 9)]))
        a, b = t - width * rng.uniform(0.0, 1.0), t + width * rng.uniform(0.0, 1.0)
        pred = (lambda x, t=t: x >= t)
        if pred(a) or not pred(b):
            continue
        tol, steps = [(BISECT_TOL, sys.maxsize), (0.0, int(rng.integers(1, 120)))][int(rng.integers(2))]
        new, old = [], []
        got = _search.halve(recording(pred, new), lo, hi, tol, steps, known=(a, b))
        assert got == _search.halve(recording(pred, old), lo, hi, tol, steps)
        # only the midpoints strictly inside (a, b) are probed, in order
        assert new == [x for x in old if a < x < b]


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


def gaussian_draw(rng):
    """A Gaussian leaf, under a scaled or a composed argmax node or alone,
    and a delta target in [1e-300, 0.5]."""
    rounds = int(rng.integers(1, 60))
    sens = float(rng.choice([1.0, 2.0, 2.0 * math.sqrt(rounds)]))
    leaf = gaussian_profile(float(rng.uniform(0.3, 30.0)), sens)
    node = [leaf,
            Scaled(leaf, float(rng.uniform(1.0, 1e4)), float(rng.uniform(0.0, 5.0)), bool(rng.integers(2))),
            rnm_composition_profile(leaf, int(rng.integers(1, 10**4)), int(rng.integers(1, 4)))][int(rng.integers(3))]
    return leaf, node, log_uniform(rng, -300, math.log10(0.5))


def old_epsilon_for_delta(node, delta, monkeypatch):
    # epsilon_for_delta with the Gaussian bisected as it was
    with monkeypatch.context() as patch:
        patch.setattr(profiles, "_bisect", old_bisect)
        try:
            return profiles.epsilon_for_delta(node, delta).hex()
        except UnreachableTargetError:
            return None


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_gaussian_inverse_is_its_old_bisection(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    for _ in range(1300):
        leaf, node, delta = gaussian_draw(rng)
        floor = float(rng.choice([0.0, -rng.uniform(0.0, 30.0), -1e21]))
        assert profiles._bisect(leaf, delta, floor).hex() == old_bisect(leaf, delta, floor).hex()
        try:
            got = profiles.epsilon_for_delta(node, delta).hex()
        except UnreachableTargetError:
            got = None
        assert got == old_epsilon_for_delta(node, delta, monkeypatch)
        if node is leaf and leaf(0.0) > delta:
            assert got == reference_bisection(leaf, delta).hex()


class Steered(PrivacyProfile):
    """A node of the given values with the given root estimate; records
    each eps it is evaluated at."""

    def __init__(self, value, root, calls):
        self.value, self.estimate, self.calls = value, root, calls

    def _at(self, eps):
        self.calls.append(eps)
        return self.value(eps)

    def _root(self, delta):
        return self.estimate


# a node that falls to 0 at 5, and one that also reads 0 just above 3.3
STEP_AT_5 = (lambda eps: 1.0 if eps < 5.0 else 0.0)
W = 1e-9 * 3.3
DIP_AT_3_3 = (lambda eps: 0.0 if 3.3 <= eps < 3.3 + 2 * W or eps >= 5.0 else 1.0)


@pytest.mark.parametrize("value, root, checks", [
    (STEP_AT_5, None, 0),
    # the value is above delta at 3.3 - W and at 3.3 + W too: two probes
    (STEP_AT_5, 3.3, 2),
    # the two values straddle delta, but the answer taken unprobed from
    # them, just above 3.3 + W, is not certified: three probes
    (DIP_AT_3_3, 3.3, 3),
], ids=["no estimate", "a wrong estimate", "an uncertified answer"])
def test_a_failed_steer_falls_back_to_the_old_bisection(value, root, checks):
    new, old = [], []
    got = profiles._bisect(Steered(value, root, new), 0.5, 0.0)
    assert got == old_bisect(Steered(value, root, old), 0.5, 0.0) == 5.0
    assert len(new) == checks + len(old) and new[checks:] == old


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


def is_subsequence(part, whole):
    rest = iter(whole)
    return all(x in rest for x in part)


def negbin_draw(rng):
    """A shape and a mean: any shape, shapes within 1e-3 of 0, where the
    mean takes its expm1 form, and shapes in (-1, -0.99], where it is
    flattest; means from 1.001 up, to 1e12 where the 90-step cap binds."""
    shape = float(rng.choice([
        rng.uniform(-0.99, 0.0), rng.uniform(0.0, 5.0), 0.0,
        rng.choice([-1.0, 1.0]) * log_uniform(rng, -16, -3),
        -1.0 + log_uniform(rng, -6, -2)]))
    m = float(rng.choice([1.0 + log_uniform(rng, -3, 12), log_uniform(rng, math.log10(1.001), 8)]))
    return shape, m


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_solve_success_is_its_old_loop(seed, monkeypatch):
    # the same bits; the halving probes a subsequence of the old loop's
    # points, and a count out of reach is refused after the same probes
    rng = np.random.default_rng(seed)
    real, real_halve = countdist._negbin_mean, countdist.halve
    probes, halving = [], []

    def mean(shape, g):
        probes.append(g)
        return real(shape, g)

    def halve(pred, *args, **kwargs):
        return real_halve(recording(pred, halving), *args, **kwargs)

    monkeypatch.setattr(countdist, "_negbin_mean", mean)
    monkeypatch.setattr(countdist, "halve", halve)
    solved = new_total = old_total = 0
    for _ in range(1300):
        shape, m = negbin_draw(rng)
        answers = []
        for solve in (countdist._solve_success, old_solve_success):
            probes.clear()
            halving.clear()
            try:
                answers.append(solve(shape, m).hex())
            except InfeasibleMeanError:
                answers.append(None)
            answers.append((probes[:], halving[:]))
        got, (new, new_halving), want, (old, _) = answers
        assert got == want
        if got is None:
            assert new == old
            continue
        assert is_subsequence(new_halving, old)
        solved += 1
        new_total += len(new)
        old_total += len(old)
    assert solved > 900
    assert 2 * new_total <= old_total


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_solve_success_without_a_band_is_its_old_loop(seed, monkeypatch):
    # where the band is not found, the halving is the old loop's, probe for probe
    rng = np.random.default_rng(seed)
    real = countdist._negbin_mean
    probes = []

    def mean(shape, g):
        probes.append(g)
        return real(shape, g)

    monkeypatch.setattr(countdist, "_negbin_mean", mean)
    monkeypatch.setattr(countdist, "_success_band", lambda *args: _search.UNKNOWN)
    for _ in range(100):
        shape, m = negbin_draw(rng)
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
