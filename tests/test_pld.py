"""Tests for the discretized privacy-loss machinery."""

import gc
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import privsel.pld as pldmod
from privsel import presets
from privsel.errors import GridTooCoarseError, MemoryBudgetError
from privsel.oracles import hs_divergence_quadrature, subsampled_gaussian_pair
from privsel.pld import (
    DiscretePLD,
    GridSpec,
    SubsampledGaussianParams,
    compose,
    renyi_subsampled_gaussian,
    subsampled_gaussian_pld,
    subsampled_gaussian_profile,
)
from privsel.profiles import gaussian_profile

FIG_Q = 256 / 60000
FIG_SIGMA = 1.1

# one-step hockey-stick values, pinned against this implementation
ONE_STEP_REMOVE_D01 = 7.944737558848163e-07
ONE_STEP_REMOVE_D0 = 0.0014957385227659114
ONE_STEP_ADD_D0 = 0.0014957385227657438

# q=0.1, sigma=1, 8 steps
COMPOSED_PINS = {
    0.5: 0.02600685646338507,
    1.0: 0.004667076149672915,
    2.0: 0.0001264810316933158,
}

RENYI_A16_ONE_STEP = 0.7918914327818983


def test_grid_spec_validation():
    GridSpec(spacing=1e-4)
    with pytest.raises(ValueError):
        GridSpec(spacing=0.0)
    with pytest.raises(ValueError):
        GridSpec(spacing=-1e-4)


def test_params_validation():
    SubsampledGaussianParams(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        SubsampledGaussianParams(0.0, 2.0)
    with pytest.raises(ValueError):
        SubsampledGaussianParams(1.1, 2.0)
    with pytest.raises(ValueError):
        SubsampledGaussianParams(0.5, 0.0)
    with pytest.raises(ValueError):
        SubsampledGaussianParams(0.5, 2.0, 0)


def test_discrete_pld_validation():
    with pytest.raises(ValueError):
        DiscretePLD(spacing=1.0, origin_index=0, mass=np.array([]), tail_mass=1.0)
    with pytest.raises(ValueError):
        DiscretePLD(spacing=1.0, origin_index=0,
                    mass=np.array([1.2, -0.2]), tail_mass=0.0)
    with pytest.raises(ValueError):
        DiscretePLD(spacing=1.0, origin_index=0,
                    mass=np.array([0.5, 0.4]), tail_mass=0.0)


def test_discrete_pld_delta_by_hand():
    d = DiscretePLD(spacing=1.0, origin_index=0,
                    mass=np.array([0.5, 0.5]), tail_mass=0.0)
    assert d.delta(0.0) == pytest.approx(0.5 * (1 - math.exp(-1.0)), rel=1e-15)
    assert d.delta(0.5) == pytest.approx(0.5 * (1 - math.exp(-0.5)), rel=1e-15)
    assert d.delta(2.0) == 0.0


def test_delta_past_grid_returns_tail():
    one = subsampled_gaussian_pld(SubsampledGaussianParams(0.1, 1.0), "remove")
    assert one.delta(600.0) == one.tail_mass
    assert 0 < one.tail_mass < 1e-12


def test_one_step_frozen_values():
    fig = SubsampledGaussianParams(FIG_Q, FIG_SIGMA)
    rem = subsampled_gaussian_pld(fig, "remove")
    add = subsampled_gaussian_pld(fig, "add")
    assert rem.delta(0.1) == pytest.approx(ONE_STEP_REMOVE_D01, rel=1e-12)
    assert rem.delta(0.0) == pytest.approx(ONE_STEP_REMOVE_D0, rel=1e-12)
    assert add.delta(0.0) == pytest.approx(ONE_STEP_ADD_D0, rel=1e-12)


def test_one_step_upper_bounds_quadrature():
    # the discretization must never undercut the true divergence (beyond
    # quadrature noise), and at the default spacing it should stay tight
    cases = [
        (FIG_Q, FIG_SIGMA, (0.0, 0.5)),
        (0.2, 1.5, (0.0, 1.0)),
    ]
    for q, sigma, eps_list in cases:
        params = SubsampledGaussianParams(q, sigma)
        for direction in ("remove", "add"):
            pld = subsampled_gaussian_pld(params, direction)
            pair = subsampled_gaussian_pair(q, sigma, direction)
            for eps in eps_list:
                exact = hs_divergence_quadrature(pair, eps)
                got = pld.delta(eps)
                assert got >= exact - 1e-12
                assert got <= exact + 1e-8


def test_full_batch_composition_matches_gaussian():
    # q=1 removes the subsampling, so T steps at sigma compose to a single
    # gaussian at sigma/sqrt(T); the discretized bound must sit just above it
    prof = subsampled_gaussian_profile(SubsampledGaussianParams(1.0, 2.0, 4))
    exact = gaussian_profile(1.0, 1.0)
    for eps in (0.5, 1.0, 2.0, 3.0, 4.0):
        gap = prof(eps) - exact(eps)
        assert 0.0 <= gap <= 5e-9


def test_full_batch_profile_dominates_gaussian_at_small_sigma():
    # at q = 1 the remove loss is x itself; far left in the window
    # log1p(expm1(x)) would be -inf, which once made small sigma crash
    for sigma in (0.1, 0.5, 1.0, 3.0):
        prof = subsampled_gaussian_profile(SubsampledGaussianParams(1.0, sigma))
        exact = gaussian_profile(sigma)
        for eps in np.linspace(0.0, 60.0, 121):
            assert prof(eps) >= exact(eps) - 1e-12


def test_compose_identity_and_validation():
    one = subsampled_gaussian_pld(SubsampledGaussianParams(0.1, 1.0), "remove")
    assert compose(one, 1) is one
    with pytest.raises(ValueError):
        compose(one, 0)


def test_composition_grows_delta():
    one = subsampled_gaussian_pld(SubsampledGaussianParams(0.1, 1.0), "remove")
    two = compose(one, 2)
    four = compose(one, 4)
    assert two.spacing == one.spacing
    assert abs(float(two.mass.sum()) + two.tail_mass - 1.0) < 1e-9
    assert one.delta(0.5) < two.delta(0.5) < four.delta(0.5)


def test_composed_profile_frozen_values():
    prof = subsampled_gaussian_profile(SubsampledGaussianParams(0.1, 1.0, 8))
    for eps, want in COMPOSED_PINS.items():
        assert prof(eps) == pytest.approx(want, rel=1e-12)


def test_renyi_full_batch_identity():
    # q=1 is a plain gaussian: alpha / (2 sigma^2) per step, additive in steps
    got = renyi_subsampled_gaussian(SubsampledGaussianParams(1.0, 2.0, 3), 8.0)
    assert got == pytest.approx(3 * 8.0 / (2 * 4.0), rel=1e-9)


def test_renyi_one_step_frozen_and_cross_checked():
    params = SubsampledGaussianParams(FIG_Q, FIG_SIGMA, 1)
    got = renyi_subsampled_gaussian(params, 16.0)
    assert got == pytest.approx(RENYI_A16_ONE_STEP, rel=1e-12)

    # independent Simpson integration over the mixture likelihood ratio
    alpha, q, sigma = 16.0, FIG_Q, FIG_SIGMA
    w = alpha + 1 + sigma * math.sqrt(2 * math.log(1e30))
    t = np.linspace(-w, w, 2_000_001)

    def logn(x, mu):
        return -0.5 * ((x - mu) / sigma) ** 2 - math.log(
            sigma * math.sqrt(2 * math.pi))

    lmix = np.logaddexp(math.log1p(-q) + logn(t, 0.0),
                        math.log(q) + logn(t, 1.0))
    h = t[1] - t[0]
    wts = np.ones_like(t)
    wts[1:-1:2] = 4
    wts[2:-1:2] = 2
    vals = []
    for lf in (alpha * lmix + (1 - alpha) * logn(t, 0.0),
               alpha * logn(t, 0.0) + (1 - alpha) * lmix):
        s = lf.max()
        vals.append(
            (s + math.log(np.sum(np.exp(lf - s) * wts) * h / 3)) / (alpha - 1))
    assert got == pytest.approx(max(vals), rel=1e-9)


def test_renyi_scales_with_steps():
    p1 = SubsampledGaussianParams(FIG_Q, FIG_SIGMA, 1)
    p5 = SubsampledGaussianParams(FIG_Q, FIG_SIGMA, 5)
    one = renyi_subsampled_gaussian(p1, 16.0)
    assert renyi_subsampled_gaussian(p5, 16.0) == pytest.approx(5 * one, rel=1e-12)


def test_memory_budget_guard(tmp_path, monkeypatch):
    with pytest.raises(MemoryBudgetError):
        subsampled_gaussian_pld(
            SubsampledGaussianParams(0.1, 1.0), "remove",
            GridSpec(spacing=1e-12))
    # both directions fail, the profile's worker is joined, and the cache
    # keeps none of the temporary files made before the builds
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    before = threading.active_count()
    with pytest.raises(MemoryBudgetError):
        subsampled_gaussian_profile(SubsampledGaussianParams(0.1, 1.0, 4),
                                    GridSpec(spacing=1e-12))
    assert threading.active_count() == before
    assert not list(tmp_path.iterdir())


def test_coarse_grid_guard(monkeypatch):
    # a discretization whose delta(0) keeps moving under refinement must be
    # refused; fake the builder so the half-spacing check sees a big shift
    def fake_build(q, sigma, direction, spacing):
        return DiscretePLD(spacing=spacing, origin_index=1,
                           mass=np.array([1.0]), tail_mass=0.0)

    monkeypatch.setattr(pldmod, "_build", fake_build)
    with pytest.raises(GridTooCoarseError):
        subsampled_gaussian_pld(
            SubsampledGaussianParams(0.1, 1.0), "remove",
            GridSpec(spacing=0.5))


def test_default_grid_passes_self_check():
    pld = subsampled_gaussian_pld(SubsampledGaussianParams(0.3, 0.8), "remove")
    finer = pldmod._build(0.3, 0.8, "remove", pld.spacing / 2)
    assert abs(pld.delta(0.0) - finer.delta(0.0)) < 1e-6


def test_grid_window_matches_the_normal_quantile_bit_for_bit():
    # the window's width is a literal, so building a grid imports no
    # quantile function; scipy stays the reference
    from scipy.special import ndtri

    assert pldmod._WINDOW_Z.hex() == float(-ndtri(GridSpec.tail_mass / 4)).hex()


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    params = SubsampledGaussianParams(0.2, 1.0, 4)
    first = subsampled_gaussian_profile(params)(0.5)
    files = list(tmp_path.glob("pld_*.npz"))
    assert len(files) == 2  # one per direction

    # the second call reads both directions from the saved files
    def no_compose(pld, steps):
        raise AssertionError("composed although the disk cache holds the PLD")

    monkeypatch.setattr(pldmod, "compose", no_compose)
    assert subsampled_gaussian_profile(params)(0.5) == first


def test_a_profile_holds_the_only_references_to_its_plds(monkeypatch):
    # nothing in the process keeps a composed distribution past its profile
    monkeypatch.delenv(pldmod.CACHE_ENV, raising=False)
    prof = subsampled_gaussian_profile(SubsampledGaussianParams(0.2, 1.0, 4))
    assert prof(0.5) > 0.0
    refs = [weakref.ref(prof.remove), weakref.ref(prof.add)]
    del prof
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_fig8_composes_each_probe_once(monkeypatch):
    # the direct row reads the profile of the last passing probe, so the
    # only compositions are those of the probes, one per direction
    monkeypatch.delenv(pldmod.CACHE_ENV, raising=False)
    compose_steps, probes, built = [], [], []
    real_compose, real_search = pldmod.compose, presets._max_passing
    real_profile = presets.subsampled_gaussian_profile

    def counting_compose(pld, steps):
        compose_steps.append(steps)
        return real_compose(pld, steps)

    def counting_profile(params, grid=None):
        built.append(params.steps)
        return real_profile(params, grid)

    def counting_search(ok, lo, cap):
        def probe(steps):
            probes.append(steps)
            return ok(steps)
        return real_search(probe, lo, cap)

    monkeypatch.setattr(pldmod, "compose", counting_compose)
    monkeypatch.setattr(presets, "_max_passing", counting_search)
    monkeypatch.setattr(presets, "subsampled_gaussian_profile", counting_profile)
    _, [row] = presets.fig8_adjust_table(sigmas=(3.0,))
    assert row[1] in probes
    assert built == probes
    assert sorted(compose_steps) == sorted(2 * probes)


def test_fig6_builds_its_base_once(monkeypatch):
    # every cell is a resolve query, and the table's own cache of
    # build_base keeps them on one composed PLD per direction and one
    # Renyi curve
    monkeypatch.delenv(pldmod.CACHE_ENV, raising=False)
    composed, curves = [], []
    real_compose, real_curve = pldmod.compose, pldmod.subsampled_rdp_curve

    def counting_compose(pld, steps):
        composed.append(steps)
        return real_compose(pld, steps)

    def counting_curve(params):
        curves.append(params)
        return real_curve(params)

    monkeypatch.setattr(pldmod, "compose", counting_compose)
    for holder in (pldmod, presets):
        monkeypatch.setattr(holder, "subsampled_rdp_curve", counting_curve)
    presets.fig6_table()
    assert composed == [presets.FIG6_PARAMS.steps] * 2
    assert curves == [presets.FIG6_PARAMS]


def test_disk_cache_evicts_the_oldest_files_past_its_budget(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    grid = GridSpec()

    def path(steps):
        key = (0.2, 1.0, steps, "remove", grid.spacing, grid.tail_mass)
        return Path(pldmod._cache_path(key))

    built = {s: pldmod._composed_pld(0.2, 1.0, s, "remove", grid) for s in (2, 3, 4)}
    # the default budget keeps all three; steps 2 is made the oldest
    now = time.time_ns()
    for age, s in enumerate((4, 3, 2)):
        os.utime(path(s), ns=(now - age * 10**10,) * 2)
    monkeypatch.setattr(pldmod, "CACHE_MAX_BYTES",
                        path(3).stat().st_size + path(4).stat().st_size)
    pldmod._evict(str(tmp_path), path(4).name)
    assert sorted(tmp_path.glob("pld_*.npz")) == sorted([path(3), path(4)])

    # a budget the newest file alone exceeds, while another process
    # removes each file just before this one does
    monkeypatch.setattr(pldmod, "CACHE_MAX_BYTES", 0)
    real_remove, real_compose = os.remove, pldmod.compose

    def racing_remove(p):
        real_remove(p)
        real_remove(p)

    composed = []

    def counting_compose(pld, steps):
        composed.append(steps)
        return real_compose(pld, steps)

    monkeypatch.setattr(pldmod.os, "remove", racing_remove)
    monkeypatch.setattr(pldmod, "compose", counting_compose)
    again = pldmod._composed_pld(0.2, 1.0, 2, "remove", grid)
    assert composed == [2]  # evicted, so composed again, to the same bits
    assert np.array_equal(again.mass, built[2].mass)
    assert (again.origin_index, again.tail_mass) == (built[2].origin_index,
                                                     built[2].tail_mass)
    assert list(tmp_path.glob("pld_*.npz")) == [path(2)]


def test_disk_cache_evicts_an_orphaned_temporary_oldest_first(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    grid = GridSpec()

    def path(steps):
        key = (0.2, 1.0, steps, "remove", grid.spacing, grid.tail_mass)
        return Path(pldmod._cache_path(key))

    pldmod._composed_pld(0.2, 1.0, 4, "remove", grid)
    size = path(4).stat().st_size
    path(4).unlink()
    pldmod._composed_pld(0.2, 1.0, 3, "remove", grid)
    # a killed writer's temporary, older than the cache file beside it
    orphan = tmp_path / ".tmp_pld_orphan.npz"
    orphan.write_bytes(bytes(4096))
    now = time.time_ns()
    os.utime(orphan, ns=(now - 2 * 10**10,) * 2)
    os.utime(path(3), ns=(now - 10**10,) * 2)
    # the two cache files fit the budget; the orphan on top of them does not
    monkeypatch.setattr(pldmod, "CACHE_MAX_BYTES", path(3).stat().st_size + size)
    pldmod._composed_pld(0.2, 1.0, 4, "remove", grid)
    assert sorted(tmp_path.iterdir()) == sorted([path(3), path(4)])


def test_a_temporary_evicted_before_its_rename_is_not_cached(tmp_path, monkeypatch):
    # another writer's eviction removes this writer's temporary file
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    real_replace = os.replace

    def evicted_first(src, dst):
        os.remove(src)
        real_replace(src, dst)

    monkeypatch.setattr(pldmod.os, "replace", evicted_first)
    got = pldmod._composed_pld(0.2, 1.0, 4, "remove", GridSpec())
    want = compose(subsampled_gaussian_pld(SubsampledGaussianParams(0.2, 1.0),
                                           "remove"), 4)
    assert np.array_equal(got.mass, want.mass)
    assert (got.origin_index, got.tail_mass) == (want.origin_index, want.tail_mass)
    assert not list(tmp_path.iterdir())


def test_stale_cache_version_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    params = SubsampledGaussianParams(0.2, 1.0, 4)
    want = subsampled_gaussian_profile(params)(0.5)
    path = next(tmp_path.glob("pld_*.npz"))
    with np.load(path) as f:
        stale = {k: f[k] for k in f.files}
    stale["version"] = np.int64(-1)
    stale["mass"] = stale["mass"] * 0.5  # corrupt so a naive load would differ
    np.savez(path, **stale)

    assert subsampled_gaussian_profile(params)(0.5) == want


@pytest.mark.parametrize("failing, raised", [
    (("remove", "add"), GridTooCoarseError),
    (("remove",), GridTooCoarseError),
    (("add",), MemoryBudgetError),
])
def test_failing_profile_raises_in_order_and_joins_its_worker(monkeypatch, failing,
                                                               raised):
    # add fails first, and still remove's error is the one raised, as when
    # the directions were composed one after the other
    add_done = threading.Event()

    def composed(q, sigma, steps, direction, grid):
        if direction == "remove":
            add_done.wait(timeout=30)
            if "remove" in failing:
                raise GridTooCoarseError("remove")
        else:
            add_done.set()
            if "add" in failing:
                raise MemoryBudgetError("add")
        return direction

    monkeypatch.setattr(pldmod, "_composed_pld", composed)
    before = threading.active_count()
    with pytest.raises(raised):
        subsampled_gaussian_profile(SubsampledGaussianParams(0.2, 1.0, 4))
    assert threading.active_count() == before


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    ns = list(range(1, 2**16 + 1))
    ns += np.random.default_rng(7).integers(2**16, pldmod.MAX_CELLS,
                                            size=2000, endpoint=True).tolist()
    ns += [pldmod.MAX_CELLS - 1, pldmod.MAX_CELLS]
    assert [pldmod._next_fast_len(n) for n in ns] == [next_fast_len(n, True) for n in ns]


KILL_BETWEEN_WRITE_AND_RENAME = """
import os, signal
import privsel.pld as pld
pld.os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
pld._composed_pld(0.2, 1.0, 4, "remove", pld.GridSpec())
"""


def test_kill_between_write_and_rename_leaves_no_partial_file(tmp_path, monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PRIVSEL_PLD_CACHE=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", KILL_BETWEEN_WRITE_AND_RENAME],
                       env=env, capture_output=True, text=True)
    assert r.returncode == -signal.SIGKILL, r.stderr
    # the fully written temporary stays behind, under a name no reader opens
    assert list(tmp_path.iterdir())
    assert not list(tmp_path.glob("pld_*.npz"))

    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    got = pldmod._composed_pld(0.2, 1.0, 4, "remove", GridSpec())
    want = compose(subsampled_gaussian_pld(SubsampledGaussianParams(0.2, 1.0),
                                           "remove"), 4)
    assert np.array_equal(got.mass, want.mass)
    [path] = tmp_path.glob("pld_*.npz")
    assert np.array_equal(pldmod._load_cached(str(path)).mass, want.mass)


def test_unreadable_cache_file_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    key = (0.2, 1.0, 4, "add", GridSpec().spacing, GridSpec().tail_mass)
    path = pldmod._cache_path(key)
    with open(path, "wb") as f:
        f.write(b"PK\x03\x04 truncated")
    got = pldmod._composed_pld(0.2, 1.0, 4, "add", GridSpec())
    want = compose(subsampled_gaussian_pld(SubsampledGaussianParams(0.2, 1.0),
                                           "add"), 4)
    assert np.array_equal(got.mass, want.mass)
    assert np.array_equal(pldmod._load_cached(path).mass, want.mass)


def test_cache_file_holding_a_plain_array_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(pldmod.CACHE_ENV, str(tmp_path))
    key = (0.2, 1.0, 4, "add", GridSpec().spacing, GridSpec().tail_mass)
    path = pldmod._cache_path(key)
    with open(path, "wb") as f:
        np.save(f, np.arange(3.0))
    assert pldmod._load_cached(path) is None
    got = pldmod._composed_pld(0.2, 1.0, 4, "add", GridSpec())
    want = compose(subsampled_gaussian_pld(SubsampledGaussianParams(0.2, 1.0),
                                           "add"), 4)
    assert np.array_equal(got.mass, want.mass)
    assert np.array_equal(pldmod._load_cached(path).mass, want.mass)


def test_one_step_pld_refuses_a_step_count():
    # the one-step distribution of a 100-step params would look far more
    # private than the 100-step composition
    with pytest.raises(ValueError, match="steps"):
        subsampled_gaussian_pld(SubsampledGaussianParams(0.1, 1.0, 100), "remove")


def test_unreadable_cache_file_is_closed(tmp_path):
    path = tmp_path / "pld_bad.npz"
    path.write_bytes(b"PK\x03\x04 truncated")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert pldmod._load_cached(str(path)) is None
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# output lengths at, just below and just past 5-smooth FFT sizes, odd and even
@pytest.mark.parametrize("smooth", [64, 81, 125, 243, 1000, 1024, 3125, 4096, 15625])
def test_fft_convolution_matches_scipy_signal_bit_for_bit(smooth):
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(smooth)
    for n_out in (smooth - 1, smooth, smooth + 1):
        for la in (1, 2, n_out // 3, (n_out + 1) // 2, n_out):
            x = rng.random(la) * rng.random(la) ** 8
            y = rng.random(n_out + 1 - la) / n_out
            np.testing.assert_array_equal(pldmod._fftconvolve(x, y),
                                          fftconvolve(x, y))
        # a square reuses one transform and must still agree
        x = rng.random((n_out + 1) // 2)
        np.testing.assert_array_equal(pldmod._fftconvolve(x, x), fftconvolve(x, x))


# sha256 of the mass bytes, origin index and float.hex tail of the fig7
# preset's composed PLD, per direction, on the default grid, keyed by the
# disk cache version: a change that moves these bits must bump
# _CACHE_VERSION, so no warm call reads a file an older engine wrote
FIG7_COMPOSED_BITS = {
    2: {
        "remove": ("8a69e9cda60ee64feae2df9c2fb42ae14d502e9e0fe74b9cce8f7dc02bb9a032",
                   -19068, "0x1.4a96a6cd3a255p-42"),
        "add": ("5cb5b36547f19f646504f439b193488f2f20d3f6cbb906067f4fd38e3ea26031",
                -19361, "0x1.59809c0023c6dp-42"),
    },
}


@pytest.mark.parametrize("direction", ["remove", "add"])
def test_composed_fig7_pld_bits_are_pinned(direction):
    from privsel.presets import FIG7_PARAMS

    one = subsampled_gaussian_pld(
        SubsampledGaussianParams(FIG7_PARAMS.q, FIG7_PARAMS.sigma), direction)
    pld = compose(one, FIG7_PARAMS.steps)
    bits = (hashlib.sha256(pld.mass.tobytes()).hexdigest(), pld.origin_index,
            pld.tail_mass.hex())
    assert bits == FIG7_COMPOSED_BITS[pldmod._CACHE_VERSION][direction]


def _full_cumsum_trim(mass, origin, tail):
    """_trim with full-length prefix and suffix sums, the reference the
    edge scan must match to the bit."""
    prefix = np.cumsum(mass)
    suffix = np.cumsum(mass[::-1])[::-1]
    beyond = np.empty_like(suffix)
    beyond[:-1] = suffix[1:]
    beyond[-1] = 0.0
    keep_hi = int(np.argmax(beyond < pldmod.TRIM_MASS))
    keep_lo = min(int(np.searchsorted(prefix, pldmod.TRIM_MASS)), keep_hi)
    out = mass[keep_lo : keep_hi + 1].copy()
    if keep_lo > 0:
        out[0] += float(prefix[keep_lo - 1])
    return out, origin + keep_lo, tail + float(beyond[keep_hi])


def _bump(rng, n):
    # a Gaussian bump whose edge cells fall far below TRIM_MASS, so the
    # cut can sit anywhere from the first cell to past several windows
    x = np.linspace(-1.0, 1.0, n) - rng.uniform(-0.2, 0.2)
    mass = np.exp(-rng.uniform(10.0, 150.0) * x**2) * rng.random(n)
    return mass / mass.sum()


def _trim_cases():
    rng = np.random.default_rng(20261019)
    window = pldmod._TRIM_WINDOW
    cases = {
        "below-trim-mass": rng.random(3000) * 1e-20,
        "single-cell": np.array([1.0]),
        "single-tiny-cell": np.array([1e-16]),
        "two-cells": np.array([0.5, 0.5]),
        "zero-stretches-past-the-window": np.concatenate(
            [np.zeros(5 * window), rng.random(7), np.zeros(17 * window)]),
        "all-mass-first": np.concatenate([[1.0], np.zeros(3 * window)]),
        "all-mass-last": np.concatenate([np.zeros(3 * window), [1.0]]),
        "mass-at-both-ends": np.concatenate([[0.5], np.zeros(2 * window), [0.5]]),
        "window-length": rng.random(window),
    }
    for n in (3, 700, 1024, 1025, 4097, 30_000, 200_000):
        cases[f"bump-{n}"] = _bump(rng, n)
        # heavy-tailed cells over thirty decades
        cases[f"decades-{n}"] = rng.random(n) * 10.0 ** rng.uniform(-30, 0, n)
    return cases


TRIM_CASES = _trim_cases()


@pytest.mark.parametrize("mass", TRIM_CASES.values(), ids=TRIM_CASES)
def test_edge_trim_matches_full_cumsum_trim(mass):
    for tail in (0.0, 3e-13):
        got, origin, got_tail = pldmod._trim(mass, -17, tail)
        want, want_origin, want_tail = _full_cumsum_trim(mass, -17, tail)
        assert got.tobytes() == want.tobytes()
        assert (origin, got_tail.hex()) == (want_origin, want_tail.hex())
