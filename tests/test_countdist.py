"""Count-distribution invariants, frozen parameter solves, and the binomial
and Poisson counts against scipy.stats."""

import contextlib
import importlib.util
import math
import os
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privsel import _special, countdist
from privsel.countdist import (
    TAIL_MASS,
    Binomial,
    Poisson,
    TruncNegBinomial,
    from_expected,
)
from privsel.errors import InfeasibleMeanError

# success parameter solved for the mean-10 logarithmic count, pinned
# against an independent bisection on (1/g - 1) / log(1/g)
LOG_SERIES_SUCCESS = 0.026918259600680214


def test_geometric_success_is_reciprocal_mean():
    d = from_expected("negbin", 10.0, shape=1.0)
    assert d.success == 0.1
    assert d.mean() == pytest.approx(10.0, rel=1e-12)


def test_log_series_success_frozen():
    d = from_expected("negbin", 10.0, shape=0.0)
    assert d.success == pytest.approx(LOG_SERIES_SUCCESS, rel=1e-12)
    assert d.mean() == pytest.approx(10.0, rel=1e-9)


def ninety_step_success(shape, m):
    """The negbin success solve as it was before it stopped early: 90
    bisection steps from the same bracket, whatever they change."""
    def mean_at(g):
        return TruncNegBinomial(shape, g).mean()

    lo = min(0.5, 1 / m)
    while mean_at(lo) < m:
        lo /= 10
    hi = 1 - 1e-12
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > m:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("shape", [-0.9, -0.5, -1e-4, 0.0, 1e-12, 0.3, 2.0, 7.5])
@pytest.mark.parametrize("m", [1.0 + 1e-9, 1.5, 2.0, 17.3, 300.0, 3000.0, 1e6])
def test_success_solve_stops_on_the_ninety_step_bits(shape, m):
    got = from_expected("negbin", m, shape=shape).success
    assert got.hex() == ninety_step_success(shape, m).hex()


@pytest.mark.parametrize("shape", [-1.0, -2.0, -50.0, float("nan")])
def test_success_solve_refuses_a_shape_at_or_below_minus_one(shape):
    with pytest.raises(ValueError, match="^shape eta must exceed -1, got "):
        from_expected("negbin", 10.0, shape=shape)


def test_from_expected_round_trips_mean():
    for kind, kwargs in (
        ("negbin", {"shape": 0.5}),
        ("negbin", {"shape": 3.0}),
        ("negbin", {"shape": -0.5}),
        ("binomial", {"trials": 200}),
        ("poisson", {}),
    ):
        d = from_expected(kind, 25.0, **kwargs)
        assert d.mean() == pytest.approx(25.0, rel=1e-9)


@pytest.mark.parametrize(
    "dist",
    [
        TruncNegBinomial(1.0, 0.1),
        TruncNegBinomial(0.0, 0.05),
        TruncNegBinomial(2.5, 0.3),
        TruncNegBinomial(-0.5, 0.2),
        Binomial(50, 0.2),
        Poisson(10.0),
    ],
    ids=lambda d: type(d).__name__ + repr(tuple(vars(d).values())),
)
def test_pmf_normalization_and_mean(dist):
    lo = 0 if dist.pmf(0) > 0 else 1
    ks = np.arange(lo, dist.support_upper() + 1)
    p = np.asarray(dist.pmf(ks))
    assert float(p.min()) >= 0.0
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)
    assert float((ks * p).sum()) == pytest.approx(dist.mean(), rel=1e-10)


@pytest.mark.parametrize(
    "dist",
    [TruncNegBinomial(1.0, 0.1), TruncNegBinomial(0.0, 0.05),
     Binomial(40, 0.25), Poisson(7.0)],
    ids=["geometric", "log-series", "binomial", "poisson"],
)
def test_pgf_deriv_matches_series(dist):
    # d/dz E[z^K] = sum_k k pmf(k) z^(k-1)
    ks = np.arange(0, dist.support_upper(1e-16) + 1)
    p = np.asarray(dist.pmf(ks))
    for z in (0.0, 0.3, 0.7, 1.0):
        series = float(np.sum(ks[1:] * p[1:] * z ** (ks[1:] - 1)))
        assert dist.pgf_deriv(z) == pytest.approx(series, rel=1e-10, abs=1e-12)


def test_pgf_deriv_at_one_is_mean():
    for dist in (TruncNegBinomial(2.0, 0.4), Binomial(30, 0.1), Poisson(3.0)):
        assert dist.pgf_deriv(1.0) == pytest.approx(dist.mean(), rel=1e-12)


def test_cdf_accumulates_pmf():
    dist = TruncNegBinomial(1.0, 0.25)
    assert dist.cdf(0) == 0.0
    acc = 0.0
    for k in range(1, 20):
        acc += dist.pmf(k)
        assert dist.cdf(k) == pytest.approx(acc, rel=1e-12)


def test_support_upper_captures_tail():
    for dist in (TruncNegBinomial(1.0, 0.02), Poisson(40.0), Binomial(60, 0.5)):
        hi = dist.support_upper(1e-9)
        assert dist.cdf(hi) >= 1 - 1e-9 - 1e-15


def test_parameter_validation():
    with pytest.raises(ValueError):
        TruncNegBinomial(-1.0, 0.5)
    with pytest.raises(ValueError):
        TruncNegBinomial(1.0, 0.0)
    with pytest.raises(ValueError):
        TruncNegBinomial(1.0, 1.0)
    with pytest.raises(ValueError):
        Binomial(0, 0.5)
    with pytest.raises(ValueError):
        Binomial(10, 1.0)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        TruncNegBinomial(1.0, 0.5).pgf_deriv(1.2)
    with pytest.raises(ValueError):
        Poisson(2.0).pgf_deriv(-0.1)


def test_from_expected_rejects_unreachable_means():
    with pytest.raises(InfeasibleMeanError):
        from_expected("negbin", 0.5, shape=1.0)
    with pytest.raises(InfeasibleMeanError):
        from_expected("binomial", 20.0, trials=10)
    with pytest.raises(InfeasibleMeanError):
        from_expected("poisson", -1.0)
    with pytest.raises(ValueError):
        from_expected("negbin", 5.0)
    with pytest.raises(ValueError):
        from_expected("binomial", 5.0)
    with pytest.raises(ValueError):
        from_expected("uniform", 5.0)


@pytest.fixture
def mean_calls(monkeypatch):
    """The shapes and successes `_negbin_mean` is called at, from an
    empty solve memo on."""
    calls = []
    real = countdist._negbin_mean

    def mean(shape, g):
        calls.append((shape, g))
        return real(shape, g)

    monkeypatch.setattr(countdist, "_negbin_mean", mean)
    countdist._kept_success.cache_clear()
    yield calls
    countdist._kept_success.cache_clear()


def test_a_count_asked_for_again_is_solved_once(mean_calls):
    countdist._solve_success(0.5, 123.4)
    one_solve = mean_calls[:]
    mean_calls.clear()
    got = {from_expected("negbin", 123.4, shape=0.5).success.hex() for _ in range(3)}
    assert mean_calls == one_solve
    assert got == {countdist._solve_success(0.5, 123.4).hex()}


def test_a_mean_out_of_reach_raises_on_every_call(mean_calls):
    # no mean reaches 1e6 at shape -0.99 above success 1e-280
    messages = []
    for _ in range(3):
        before = len(mean_calls)
        with pytest.raises(InfeasibleMeanError) as e:
            from_expected("negbin", 1e6, shape=-0.99)
        messages.append(str(e.value))
        assert len(mean_calls) > before
    assert messages == ["mean 1000000.0 out of reach for shape -0.99"] * 3
    assert countdist._kept_success.cache_info().currsize == 0


@pytest.mark.parametrize("first", ["float", "float64"])
def test_a_float64_mean_gives_the_float_success(first, mean_calls):
    m, shape = 417.25, 2.0
    want = countdist._solve_success(shape, m)
    means = [m, np.float64(m)] if first == "float" else [np.float64(m), m]
    for mean in means:
        got = from_expected("negbin", mean, shape=np.float64(shape)).success
        assert type(got) is float and got.hex() == want.hex()


def test_the_memo_stays_at_its_bound_and_empties(mean_calls):
    kept = countdist._SOLVES_KEPT
    for i in range(kept + 50):
        from_expected("negbin", 2.0 + i / 7, shape=0.5)
    assert countdist._kept_success.cache_info().currsize == kept
    countdist._kept_success.cache_clear()
    assert countdist._kept_success.cache_info().currsize == 0


def test_the_benchmark_reset_empties_the_memo(mean_calls):
    # perfbench replays CLI calls in one process, clearing privsel's
    # caches between them so that each starts as cold as a fresh process
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "child.py")
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    from_expected("negbin", 50.0, shape=0.0)
    assert countdist._kept_success.cache_info().currsize == 1
    child._reset_process_caches()
    assert countdist._kept_success.cache_info().currsize == 0


@pytest.mark.parametrize("shape", [5e-324, -5e-324, 1e-131, 1e-10, -1e-10])
def test_near_zero_shape_approaches_log_series(shape):
    # 1 - g**shape cancels to nothing here; the mean and the pmf must
    # still tend to the shape-0 (logarithmic) distribution
    near, log_series = TruncNegBinomial(shape, 0.5), TruncNegBinomial(0.0, 0.5)
    assert near.mean() == pytest.approx(log_series.mean(), rel=1e-9)
    k = np.arange(1, 60)
    assert np.allclose(near.pmf(k), log_series.pmf(k), rtol=1e-9, atol=0.0)


# scipy.stats is a reference for these tests only; privsel computes the
# binomial and Poisson counts with scipy.special
@pytest.mark.parametrize("rate", [0.01, 0.5, 3.0, 17.3, 250.0, 5000.0])
def test_poisson_matches_scipy_stats_bit_for_bit(rate):
    dist = Poisson(rate)
    ks = np.arange(-1, int(2 * rate) + 40)
    assert np.array_equal(dist.pmf(ks), stats.poisson.pmf(ks, rate))
    for k in ks:
        assert dist.pmf(int(k)) == stats.poisson.pmf(k, rate)
        assert dist.cdf(int(k)) == stats.poisson.cdf(k, rate)


@pytest.mark.parametrize("rate", [0.01, 0.5, 3.0, 17.3, 250.0, 5000.0])
@pytest.mark.parametrize("tail", [1e-15, 1e-12, 1e-9])
def test_poisson_support_upper_holds_the_tail(rate, tail):
    hi = Poisson(rate).support_upper(tail)
    assert stats.poisson.sf(hi, rate) <= tail
    # the bound as it was read off scipy.stats
    k = int(stats.poisson.isf(tail, rate)) + 2
    while stats.poisson.sf(k, rate) > tail:
        k += 1
    assert hi == k


@pytest.mark.parametrize("n", [1, 2, 5, 15, 20, 50, 200, 1000])
@pytest.mark.parametrize("p", [1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9])
def test_binomial_matches_scipy_stats(n, p):
    dist = Binomial(n, p)
    ks = np.arange(-1, n + 2)
    # relative, down to the least normal float, where relative error
    # stops meaning anything
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(dist.pmf(ks), stats.binom.pmf(ks, n, p),
                               rtol=1e-11, atol=tiny)
    cdf = [dist.cdf(int(k)) for k in ks]
    np.testing.assert_allclose(cdf, stats.binom.cdf(ks, n, p), rtol=1e-12, atol=tiny)
    assert cdf[0] == 0.0 and cdf[-2:] == [1.0, 1.0]
    assert dist.pmf(-1) == dist.pmf(n + 1) == 0.0
    assert stats.binom.sf(dist.support_upper(), n, p) <= TAIL_MASS


def test_binomial_mean_form_refuses_zero_trials():
    # it divided m by the trial count first
    with pytest.raises(ValueError, match="^trials n must be a positive integer, got 0$"):
        from_expected("binomial", 1.0, trials=0)


# Poisson.cdf and Poisson.support_upper as they read scipy.special's pdtr,
# pdtrc and pdtrik, which load the scipy.special package
def pdtr_cdf(rate, k):
    k = math.floor(k)
    return float(scipy.special.pdtr(k, rate)) if k >= 0 else 0.0


def pdtrik_support_upper(rate, tail):
    q = 1 - tail
    k = math.ceil(scipy.special.pdtrik(q, rate))
    if k >= 1 and scipy.special.pdtr(k - 1, rate) >= q:
        k -= 1
    k += 2
    while scipy.special.pdtrc(k, rate) > tail:
        k += 1
    return k


@contextlib.contextmanager
def special_functions(path):
    """_special's functions as loaded, or as its fallback to the
    scipy.special package reads them where the extension is missing."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "fallback":
            find_spec = importlib.util.find_spec
            mp.setattr(importlib.util, "find_spec",
                       lambda name, *a: None if name == "scipy" else find_spec(name, *a))
            mp.delitem(sys.modules, "scipy.special._special_ufuncs")
            assert _special.load_extension("special", "_special_ufuncs") is None
            fallback = _special._ufuncs()
            assert fallback == [getattr(scipy.special, n) for n in _special.NAMES]
            for name, f in zip(_special.NAMES, fallback):
                mp.setattr(_special, name, f)
        yield


RATES = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)
POISSON = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@POISSON
@given(RATES.flatmap(lambda rate: st.tuples(
    st.just(rate), st.integers(-1, math.floor(3 * rate)))))
def _poisson_cdf_is_pdtr(case):
    rate, k = case
    assert Poisson(rate).cdf(k).hex() == pdtr_cdf(rate, k).hex()


@POISSON
@given(RATES, st.floats(-16.0, -6.0).map(lambda e: 10.0**e))
def _poisson_support_upper_is_pdtrik_form(rate, tail):
    assert Poisson(rate).support_upper(tail) == pdtrik_support_upper(rate, tail)


@pytest.mark.parametrize("path", ["loaded", "fallback"])
def test_poisson_cdf_and_support_equal_the_pdtr_forms(path):
    with special_functions(path):
        _poisson_cdf_is_pdtr()
        _poisson_support_upper_is_pdtrik_form()
        # tails where 1 - tail rounds to a neighbour of 1, and
        # 1 - (1 - tail) is above the tail itself
        for rate in (1033.260225738819, 2041.7012904727712, 5009.7259635231):
            for tail in (1e-16, 1.1404895084999947e-16, 2.0225526247785463e-16):
                assert Poisson(rate).support_upper(tail) == pdtrik_support_upper(rate, tail)
        # the largest tail: pdtrik's root at level 0 is 0
        assert Poisson(3.0).support_upper(1.0) == pdtrik_support_upper(3.0, 1.0)


@pytest.mark.parametrize("tail", [0.0, -1e-9, 1.5, math.nan])
def test_poisson_support_upper_refuses_a_tail_outside_zero_one(tail):
    # pdtrik's nan root raised while turned into an integer; the search
    # would read a nan level as met at once
    with pytest.raises(ValueError, match="^tail must be in"):
        Poisson(3.0).support_upper(tail)
