"""Internal consistency of the quadrature and sampling oracles."""

from types import SimpleNamespace

import numpy as np
import pytest

from privsel import oracles, scenario, selection
from privsel.countdist import Binomial, Poisson, TruncNegBinomial
from privsel.oracles import (
    SELECTION_INSTANCES,
    argmax_probabilities,
    gaussian_pair,
    hs_divergence_quadrature,
    instance_pair,
    mc_selection_sample,
    oracle_checks,
    pair_normalization,
    rnm_exact_divergence,
    rnm_exact_divergences,
    selection_exact_divergence,
    selection_mean_quadrature,
    subsampled_gaussian_pair,
)
from privsel.profiles import gaussian_profile


def test_pair_normalization():
    for pair in (gaussian_pair(0.0, 1.0, 4.0),
                 subsampled_gaussian_pair(0.1, 2.0, "remove"),
                 subsampled_gaussian_pair(0.1, 2.0, "add")):
        ip, iq = pair_normalization(pair)
        assert ip == pytest.approx(1.0, abs=1e-10)
        assert iq == pytest.approx(1.0, abs=1e-10)


def test_quadrature_matches_analytic_gaussian():
    pair = gaussian_pair(0.0, 1.0, 4.0)
    prof = gaussian_profile(4.0, 1.0)
    for eps in (0.0, 0.5, 1.0, 2.0):
        assert hs_divergence_quadrature(pair, eps) == pytest.approx(
            prof(eps), abs=1e-12)


def test_total_variation_is_direction_symmetric():
    pair = gaussian_pair(0.0, 1.0, 2.0)
    fwd = hs_divergence_quadrature(pair, 0.0)
    bwd = hs_divergence_quadrature(pair.swapped(), 0.0)
    assert fwd == pytest.approx(bwd, abs=1e-12)


def test_divergence_decreases_in_eps():
    pair = subsampled_gaussian_pair(0.2, 1.5, "remove")
    vals = [hs_divergence_quadrature(pair, e) for e in (0.0, 0.5, 1.0, 2.0)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0


def test_argmax_probabilities_normalize():
    probs = argmax_probabilities([0.0, 0.5, 1.0, -0.3], 1.0)
    assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-10)
    assert float(np.min(probs)) > 0.0
    # a clearly dominant coordinate takes almost all the probability
    lead = argmax_probabilities([10.0, 0.0], 0.5)
    assert lead[0] > 1 - 1e-10


def test_rnm_exact_within_union_bound():
    mu = np.zeros(3)
    mu_p = np.array([-1.0, 1.0, -1.0])
    doubled = gaussian_profile(1.0, 2.0)
    for eps in (0.0, 0.5, 1.0, 2.0):
        exact = rnm_exact_divergence(mu, mu_p, 1.0, eps)
        assert exact <= 3 * doubled(eps) + 1e-12


def test_rnm_divergences_share_one_pair_of_argmax_vectors(monkeypatch):
    mu, mu_p, epses = np.zeros(3), np.array([-1.0, 1.0, -1.0]), (0.0, 0.5, 1.0, 2.0)
    want = [rnm_exact_divergence(mu, mu_p, 1.0, eps).hex() for eps in epses]
    calls = []
    argmax = oracles.argmax_probabilities
    monkeypatch.setattr(oracles, "argmax_probabilities",
                        lambda *args: calls.append(args) or argmax(*args))
    assert [d.hex() for d in rnm_exact_divergences(mu, mu_p, 1.0, epses)] == want
    assert len(calls) == 2
    with pytest.raises(ValueError, match="eps=0.5, nan$"):
        rnm_exact_divergences(mu, mu_p, 1.0, (0.5, np.nan))


def test_rnm_exact_validation():
    with pytest.raises(ValueError):
        rnm_exact_divergence([0.0], [0.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        rnm_exact_divergence([0.0, 0.0], [0.0, 2.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        rnm_exact_divergence(np.zeros(9), np.zeros(9), 1.0, 0.0)


@pytest.mark.parametrize("divergence", [
    lambda: hs_divergence_quadrature(gaussian_pair(0.0, 1.0, 4.0), np.nan),
    lambda: hs_divergence_quadrature(gaussian_pair(0.0, 1.0, np.nan), 1.0),
    lambda: hs_divergence_quadrature(gaussian_pair(0.0, np.nan, 4.0), 1.0),
    lambda: selection_exact_divergence(gaussian_pair(0.0, 1.0, 4.0),
                                       TruncNegBinomial(1.0, 0.1), np.nan),
    lambda: rnm_exact_divergence([0.0, 0.0], [0.0, 1.0], 1.0, np.nan),
    lambda: rnm_exact_divergence([0.0, np.nan], [0.0, 1.0], 1.0, 1.0),
    lambda: rnm_exact_divergence([0.0, np.inf], [0.0, np.inf], 1.0, 1.0),
    lambda: rnm_exact_divergence([0.0, 0.0], [0.0, 1.0], np.nan, 1.0),
    lambda: rnm_exact_divergence([0.0, 0.0], [0.0, 1.0], 1.0, np.inf),
], ids=["hs-eps", "hs-sigma", "hs-mean", "selection-eps", "rnm-eps", "rnm-mean",
        "rnm-mean-inf", "rnm-sigma", "rnm-eps-inf"])
def test_non_finite_input_is_refused_not_read_as_zero(divergence):
    # a divergence of 0 passes every exact <= bound check vacuously
    with pytest.raises(ValueError):
        divergence()


def test_single_run_selection_equals_base():
    # K pinned (almost surely) at 1 reduces selection to the base release
    pair = gaussian_pair(0.0, 1.0, 4.0)
    one = Binomial(1, 1 - 1e-12)
    for eps in (0.5, 1.5):
        sel = selection_exact_divergence(pair, one, eps)
        base = hs_divergence_quadrature(pair, eps)
        assert sel == pytest.approx(base, abs=1e-9)


def test_selection_divergence_validation():
    bare = gaussian_pair(0.0, 1.0, 1.0)
    stripped = type(bare)(bare.pdf_p, bare.pdf_q, bare.lo, bare.hi)
    with pytest.raises(ValueError):
        selection_exact_divergence(stripped, TruncNegBinomial(1.0, 0.5), 1.0)
    with pytest.raises(ValueError):
        selection_exact_divergence(bare, Poisson(2.0), 0.0)


def test_mc_selection_reproducible_and_consistent():
    dist = Poisson(5.0)

    def sampler(rng, size):
        return rng.normal(0.0, 1.0, size)

    a = mc_selection_sample(sampler, dist, 100_000, seed=7)
    b = mc_selection_sample(sampler, dist, 100_000, seed=7)
    c = mc_selection_sample(sampler, dist, 100_000, seed=8)
    assert np.array_equal(a.best, b.best, equal_nan=True)
    assert not np.array_equal(a.best, c.best, equal_nan=True)

    p0 = dist.pmf(0)
    assert a.empty_fraction() == pytest.approx(
        p0, abs=a.ci_radius(p0, a.trials))

    analytic = selection_mean_quadrature(gaussian_pair(0.0, 0.0, 1.0), dist)
    assert a.mean_best() == pytest.approx(analytic, abs=12.0 / np.sqrt(a.trials))


def test_mc_selection_rejects_small_runs():
    with pytest.raises(ValueError):
        mc_selection_sample(lambda rng, size: rng.normal(size=size),
                            Poisson(2.0), 1000)


def test_mc_cdf_is_monotone():
    dist = TruncNegBinomial(1.0, 0.2)

    def sampler(rng, size):
        return rng.normal(0.0, 1.0, size)

    s = mc_selection_sample(sampler, dist, 100_000)
    grid = [-1.0, 0.0, 1.0, 2.0, 3.0]
    vals = [s.cdf(y) for y in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # the count never draws 0, so the empirical cdf reaches 1
    assert s.empty_fraction() == 0.0
    assert s.cdf(50.0) == pytest.approx(1.0, abs=1e-12)


def test_instance_table_is_well_formed():
    assert len(SELECTION_INSTANCES) >= 5
    for label, spec, dist in SELECTION_INSTANCES:
        pair = instance_pair(spec)
        assert pair.cdf_p is not None and pair.cdf_q is not None
        assert dist.mean() > 0
        assert isinstance(label, str) and label
        # each base is a spec the CLI parses, so `privsel oracle` checks
        # the bound `guarantee` builds
        assert scenario.base_params(spec)[0] == spec["kind"]
    for spec in ({"kind": "laplace", "scale": 1.0},
                 {"kind": "points", "points": [[1.0, 1e-6]]},
                 {"kind": "subsampled_gaussian", "q": 0.2, "sigma": 2.0, "steps": 2}):
        with pytest.raises(ValueError):
            instance_pair(spec)


@pytest.mark.parametrize("spec, unit", [
    ({"kind": "gaussian", "sigma": 4.0, "sensitivity": 2.0},
     gaussian_pair(0.0, 1.0, 2.0)),
    ({"kind": "subsampled_gaussian", "q": 0.2, "sigma": 4.0, "sensitivity": 2.0},
     subsampled_gaussian_pair(0.2, 2.0)),
], ids=["gaussian", "subsampled"])
def test_instance_pair_reads_the_sensitivity(spec, unit):
    pair = instance_pair(spec)
    for eps in (0.0, 1.0):
        assert hs_divergence_quadrature(pair, eps) == pytest.approx(
            hs_divergence_quadrature(unit, eps), abs=1e-12)


def test_oracle_checks_read_the_selection_bound_guarantee_builds(monkeypatch):
    # a bound of 0 certifies nothing; only the row that reads it fails
    monkeypatch.setattr(selection, "bound_for_count",
                        lambda base, dist: SimpleNamespace(profile=lambda eps: 0.0))
    rows = oracle_checks()
    assert len(rows) == 7
    assert [name for name, ok, _ in rows if not ok] == ["selection bound dominates exact"]
