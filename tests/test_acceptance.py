"""Acceptance gate for the package: eleven checks, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see every line as it prints.
Each check states its tolerance inline; a failure keeps the line (marked
FAIL) and the assertion detail.
"""

import math
import time

import numpy as np
import pytest

from privsel import presets
from privsel.oracles import (
    SELECTION_INSTANCES,
    gaussian_pair,
    hs_divergence_quadrature,
    instance_pair,
    rnm_exact_divergences,
    selection_exact_divergence,
    subsampled_gaussian_pair,
)
from privsel.pld import GridSpec, SubsampledGaussianParams, subsampled_gaussian_pld, subsampled_gaussian_profile
from privsel.profiles import (
    RdpCurve,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_to_dp,
)
from privsel.selection import (
    bound_for_count,
    rdp_select_negbin,
    select_binomial_profile,
    select_gdp_eps,
    select_negbin_profile,
    select_negbin_pure,
    select_poisson_profile,
)

DELTA = 1e-6


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    assert ok, f"acceptance check {num:02d} failed: {detail}"


def test_01_gaussian_profile_matches_quadrature():
    t0 = time.monotonic()
    worst = 0.0
    for sigma in (1.0, 4.0):
        for sens in (1.0, 2.0):
            prof = gaussian_profile(sigma, sens)
            pair = gaussian_pair(0.0, sens, sigma)
            for k in range(11):
                eps = 0.5 * k
                worst = max(worst,
                            abs(prof(eps) - hs_divergence_quadrature(pair, eps)))
    elapsed = time.monotonic() - t0
    report(1, "analytic gaussian curve vs quadrature",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst |diff| {worst:.3e} (tol 1e-10), {elapsed:.1f}s (budget 5s)")


def test_02_noisy_argmax_union_bound_soundness():
    t0 = time.monotonic()
    epses = (0.0, 0.5, 1.0, 2.0)
    worst = -math.inf
    checks = 0
    for m in (2, 3, 5):
        base = np.linspace(0.0, 0.8, m)
        swings = [np.where(np.arange(m) % 2 == 0, 1.0, -1.0),
                  np.where(np.arange(m) == 0, 1.0, -1.0),
                  np.linspace(-1.0, 1.0, m)]
        rises = [np.ones(m), np.linspace(0.2, 1.0, m)]
        for sigma in (1.0, 2.0):
            wide = gaussian_profile(sigma, 2.0)
            narrow = gaussian_profile(sigma, 1.0)
            # one pair of argmax-probability vectors per configuration, every eps
            for shifts, bound in ((swings, wide), (rises, narrow)):
                for shift in shifts:
                    exacts = rnm_exact_divergences(base, base + shift, sigma, epses)
                    for eps, exact in zip(epses, exacts):
                        worst = max(worst, exact - min(1.0, m * bound(eps)))
                        checks += 1
    elapsed = time.monotonic() - t0
    report(2, "noisy-argmax bound vs exact divergence",
           worst <= 1e-12 and elapsed < 60.0,
           f"worst excess {worst:.3e} over {checks} configs "
           f"(noise floor 1e-12), {elapsed:.1f}s (budget 60s)")


def test_03_pure_base_triple_epsilon():
    exact_ok = all(select_negbin_pure(e, 1.0) == 3.0 * e
                   for e in (0.25, 0.5, 1.0, 2.0, 3.7))
    trans_ok = True
    for e in (0.5, 1.0):
        res = select_negbin_profile(profile_from_points([(e, 0.0)]), 1.0, 0.3)
        trans_ok &= res.profile(3 * e - 1e-6) > 0
        trans_ok &= res.profile(3 * e + 1e-6) == 0.0
    report(3, "pure-base shape-1 guarantee is exactly triple",
           exact_ok and trans_ok,
           "closed form exact; profile path transitions at 3x base eps "
           "within 1e-6")


def test_04_binomial_approaches_poisson():
    base = gaussian_profile(4.0, 1.0)
    eps_bi = epsilon_for_delta(
        select_binomial_profile(base, 100_000, 1e-4).profile, DELTA)
    eps_po = epsilon_for_delta(
        select_poisson_profile(base, 10.0).profile, DELTA)
    rel = abs(eps_bi - eps_po) / eps_po
    report(4, "binomial count at huge trials matches poisson count",
           rel <= 1e-3,
           f"eps {eps_bi:.6f} vs {eps_po:.6f}, rel gap {rel:.2e} (tol 1e-3)")


def test_05_divergence_bound_beats_renyi_baseline():
    t0 = time.monotonic()
    base = gaussian_profile(4.0, 1.0)
    base_rdp = gaussian_rdp_curve(4.0)
    rows = []
    ok = True
    for m in (30, 300, 3000):
        gamma = 1.0 / m
        eps_hs = epsilon_for_delta(
            select_negbin_profile(base, 1.0, gamma).profile, DELTA)
        eps_rdp = presets.rdp_curve_eps(
            rdp_select_negbin(base_rdp, 1.0, gamma), DELTA)
        eps_gdp = select_gdp_eps(4.0, 1.0, gamma, DELTA)
        ok &= eps_hs < eps_rdp and eps_hs <= eps_gdp
        rows.append(f"m={m}: {eps_hs:.4f} < rdp {eps_rdp:.4f}, "
                    f"<= gdp {eps_gdp:.4f}")
    elapsed = time.monotonic() - t0
    report(5, "divergence bound under renyi and closed-form bounds",
           ok and elapsed < 30.0,
           "; ".join(rows) + f"; {elapsed:.1f}s (budget 30s)")


def test_06_selection_bounds_dominate_exact_oracle():
    t0 = time.monotonic()
    worst = -math.inf
    for label, spec, dist in SELECTION_INSTANCES:
        pair = instance_pair(spec)
        # built here, not through the CLI's parser, as an independent reference
        if spec["kind"] == "gaussian":
            base = gaussian_profile(spec["sigma"], 1.0)
        else:
            base = subsampled_gaussian_profile(
                SubsampledGaussianParams(spec["q"], spec["sigma"], 1))
        bound = bound_for_count(base, dist).profile
        for eps in (1.0, 2.0, 3.0, 4.0):
            exact = selection_exact_divergence(pair, dist, eps)
            worst = max(worst, exact - bound(eps))
    elapsed = time.monotonic() - t0
    report(6, "selection bounds vs exact best-of-count divergence",
           worst <= 1e-12 and elapsed < 120.0,
           f"worst excess {worst:.3e} over {len(SELECTION_INSTANCES)} "
           f"instances x 4 eps (noise floor 1e-12), "
           f"{elapsed:.1f}s (budget 120s)")


def test_07_tuning_run_budget_multiplier():
    t0 = time.monotonic()
    count_hs, count_rdp = presets.fig7_max_counts()
    ratio = count_hs / count_rdp
    elapsed = time.monotonic() - t0
    report(7, "admitted tuning runs vs renyi baseline",
           2.0 <= ratio <= 4.5 and elapsed < 120.0,
           f"{count_hs} vs {count_rdp} runs at eps {presets.FIG7_TARGET_EPS}, "
           f"ratio {ratio:.2f} (want 2.0..4.5), {elapsed:.1f}s (budget 120s)")


def test_08_loss_grid_refinement_stability():
    eps_grid = [0.5 * k for k in range(1, 11)]
    worst = -math.inf
    for params, grid in ((presets.FIG6_PARAMS, presets.FIG6_GRID),
                         (presets.FIG7_PARAMS, GridSpec())):
        coarse = subsampled_gaussian_profile(params, grid)
        fine = subsampled_gaussian_profile(
            params, GridSpec(spacing=grid.spacing / 2))
        for e in eps_grid:
            worst = max(worst, abs(coarse(e) - fine(e))
                        - (1e-4 * fine(e) + 1e-12))
    pess = -math.inf
    q, sigma = presets.FIG6_PARAMS.q, presets.FIG6_PARAMS.sigma
    for direction in ("remove", "add"):
        one = subsampled_gaussian_pld(SubsampledGaussianParams(q, sigma),
                                      direction)
        pair = subsampled_gaussian_pair(q, sigma, direction)
        for e in (0.0, 0.1, 0.5):
            pess = max(pess, hs_divergence_quadrature(pair, e) - one.delta(e))
    report(8, "half-spacing refinement and single-step pessimism",
           worst <= 0.0 and pess <= 1e-12,
           f"refinement excess {worst:.3e} (tol 1e-4 rel + 1e-12 abs); "
           f"single-step undercut {pess:.3e} (noise floor 1e-12)")


def test_09_count_family_curve_and_cdf_structure():
    (header, rows), (kheader, krows) = presets.fig4_tables()
    curves = np.array([r[1:] for r in rows])  # columns: n15 n20 n50 n1000 po
    between = np.all(curves[:, 4:5] <= curves[:, :4] + 1e-15) and np.all(
        curves[:, :4] <= curves[:, 0:1] + 1e-15)
    monotone = np.all(np.diff(curves, axis=1) <= 1e-15)
    converges = curves[-1, 3] - curves[-1, 4] < curves[-1, 0] - curves[-1, 4]
    k3 = next(r for r in krows if r[0] == 3)
    cdf_rising = all(k3[i] < k3[i + 1] for i in range(1, 4))
    report(9, "count-family curves nest toward the poisson limit",
           bool(between and monotone and converges and cdf_rising),
           f"curves ordered over {curves.shape[0]} eps points; "
           f"P(K<=3) rises {k3[1]:.2e} -> {k3[4]:.2e} as trials grow "
           "(fewer trials concentrate the count)")


def test_10_noise_ladder_step_budgets():
    header, rows = presets.fig8_adjust_table()
    want = {2.0: 4000, 3.0: 10000, 4.0: 18000}
    ok = True
    parts = []
    for row in rows:
        sigma, max_steps, eps_final, delta_final, eps_direct, gap_rel = row
        target = want[sigma]
        ok &= abs(max_steps - target) <= 0.30 * target
        ok &= gap_rel < 0.10
        parts.append(f"sigma={sigma:g}: T={max_steps} "
                     f"(target {target} +-30%), gap {gap_rel:.2%}")
    report(10, "noise ladder step budgets and final-guarantee gap",
           ok, "; ".join(parts))


def test_11_renyi_conversion_hand_value():
    curve = RdpCurve((2.0,), [1.0])
    got = rdp_to_dp(curve, 3.0)
    want = math.exp(-2.0) / 4.0
    grid = [rdp_to_dp(curve, e) for e in np.linspace(0.0, 6.0, 25)]
    monotone = all(a >= b for a, b in zip(grid, grid[1:]))
    report(11, "renyi-to-dp conversion hand value",
           abs(got - want) <= 1e-9 and monotone,
           f"delta {got:.9f} vs hand {want:.9f} (tol 1e-9); "
           "non-increasing in eps")
