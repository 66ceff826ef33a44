"""Seeded inputs of the benchmark's workloads.

Everything here is stdlib only and depends on nothing but the seed, so
the same seed gives the same inputs on every machine. Seeded values are
stratified: each run draws every input kind in fixed numbers, and
continuous parameters are jittered inside fixed strata of their ranges,
so runs with different seeds do comparable amounts of work.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli-query", "dpsgd-tables", "step-search", "bulk-queries")

# privsel modules each workload imports before it starts measuring
IMPORTS = {
    "cli-query": ("privsel.cli",),
    "dpsgd-tables": ("privsel.presets",),
    "step-search": ("privsel.presets",),
    "bulk-queries": ("privsel",),
}

# nominal seconds of one pass, set-up included, on the reference machine;
# a run makes round(--seconds / this) passes, at least 1. A fixed count
# keeps the number of latency samples, and so the tail percentile, the
# same from run to run.
PASS_SECONDS = {
    "cli-query": 35.0,
    "dpsgd-tables": 10.0,
    "step-search": 11.0,
    "bulk-queries": 9.0,
}

SIGMA_RANGE = (0.7, 10.0)
M_RANGE = (2.0, 3000.0)
DELTA_RANGE = (1e-10, 1e-4)
ETAS = (0.0, 0.5, 1.0, 2.0)

STEP_Q_RANGE = (0.005, 0.02)
STEP_SIGMA_RANGE = (1.5, 5.0)
STEP_Q_STRATA = 3
STEP_SIGMA_STRATA = 3

BULK_INSTANCES = 600

# the fig6 preset's subsampled Gaussian, as CLI flags
HEAVY_BASE = ["--base", "subsampled_gaussian", "--q", repr(256 / 60000),
              "--sigma", "1.1", "--steps", "14063", "--grid-spacing", "2.5e-5"]
HEAVY_REPEATS = 3


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng, lo, hi, i, n):
    """Log-uniform draw inside the i-th of n equal log-width strata of [lo, hi]."""
    a = math.log(lo) + (math.log(hi) - math.log(lo)) * i / n
    b = math.log(lo) + (math.log(hi) - math.log(lo)) * (i + 1) / n
    return math.exp(rng.uniform(a, b))


def _g(x):
    """Shortest text that reads back as the same float."""
    return repr(float(x))


def cli_query(seed):
    """Ordered list of CLI invocations, one pass of the cli-query workload.

    Each entry: name, argv (after `python -m privsel.cli`), expected exit
    code, whether it is a known defect, and config files to write first.
    """
    rng = random.Random(f"cli-query/{seed}")
    sigma = _log_uniform(rng, *SIGMA_RANGE)
    m = _log_uniform(rng, *M_RANGE)
    delta = _log_uniform(rng, *DELTA_RANGE)
    eta = rng.choice(ETAS)
    gauss = ["--base", "gaussian", "--sigma", _g(sigma)]
    negbin = ["--family", "negbin", "--eta", _g(eta), "--m", _g(m)]
    n = math.ceil(m / rng.uniform(0.05, 0.5)) + 1
    points = _points(rng, delta, m)
    pure_eps = rng.uniform(0.1, 2.0)
    heavy = ["guarantee", *HEAVY_BASE, "--family", "negbin", "--eta", "1",
             "--m", _g(_log_uniform(rng, 2.0, 1000.0)),
             "--delta", _g(_log_uniform(rng, 1e-8, 1e-5))]
    entries = [
        ("guarantee-negbin-hs", ["guarantee", *gauss, *negbin,
                                 "--method", "hs", "--delta", _g(delta)], 0),
        ("guarantee-negbin-rdp", ["guarantee", *gauss, *negbin,
                                  "--method", "rdp", "--delta", _g(delta)], 0),
        ("guarantee-binomial-hs", ["guarantee", *gauss, "--family", "binomial",
                                   "--n", str(n), "--p", _g(m / n),
                                   "--delta", _g(delta), "--format", "json"], 0),
        ("guarantee-poisson-eps", ["guarantee", *gauss, "--family", "poisson",
                                   "--m", _g(m), "--eps",
                                   _g(rng.uniform(1.0, 8.0))], 0),
        ("guarantee-rnm-hs", ["guarantee", *gauss, "--family", "rnm",
                              "--m", str(max(2, int(m))),
                              "--rounds", str(rng.randint(1, 4)),
                              "--delta", _g(delta)], 0),
        ("guarantee-pure-closed", ["guarantee", "--base", "pure",
                                   "--eps-base", _g(pure_eps), *negbin,
                                   "--method", "closed", "--delta", _g(delta)], 0),
        ("guarantee-points-hs", ["guarantee", "--config", "points.json",
                                 *negbin, "--delta", _g(delta)], 0),
        ("profile-gaussian", ["profile", *gauss, "--eps-grid",
                              f"0:{_g(rng.uniform(2.0, 6.0))}:0.25"], 0),
        ("compare", ["compare", rng.choice(("fig1", "fig2", "fig3", "fig4"))], 0),
        ("oracle", ["oracle"], 0),
        ("error-missing-target", ["guarantee", *gauss, *negbin], 2),
        ("error-unreachable", ["guarantee", "--config", "unreachable.json",
                               *negbin, "--delta", _g(delta)], 3),
        # fixed, not seeded: this grid needs ~4e10 cells, so privsel refuses
        # it before allocating anything; a coarser one would be allocated
        ("error-memory-budget", ["guarantee", "--base", "subsampled_gaussian",
                                 "--q", "0.01", "--sigma", "1",
                                 "--grid-spacing", "1e-10",
                                 "--delta", _g(delta)], 4),
        ("defect-sigma-nan", ["guarantee", "--base", "gaussian", "--sigma", "nan",
                              *negbin, "--delta", _g(delta)], 2),
        ("defect-config-base-list", ["guarantee", "--config", "base_list.json",
                                     "--delta", _g(delta)], 2),
    ]
    entries += [("heavy-subsampled", heavy, 0)] * HEAVY_REPEATS
    files = {
        "points.json": json.dumps({"base": {"kind": "points", "points": points}}),
        # every point's delta sits far above any target, so no eps reaches it
        "unreachable.json": json.dumps(
            {"base": {"kind": "points", "points": [[1.0, 0.01], [3.0, 0.005]]}}),
        "base_list.json": json.dumps({"base": [1]}),
    }
    known = {"defect-sigma-nan", "defect-config-base-list"}
    return {
        "files": files,
        "calls": [{"name": name, "argv": argv, "expect_rc": rc,
                   "known_defect": name in known}
                  for name, argv, rc in entries],
    }


def _points(rng, delta, m):
    """Ascending (eps, delta) points whose last delta is far below delta/m,
    so every selection target over them is reachable."""
    k = rng.randint(3, 6)
    eps = sorted(rng.uniform(0.05, 6.0) for _ in range(k))
    floor = delta / (100.0 * m)
    dels = sorted((_log_uniform(rng, floor, 1e-2) for _ in range(k - 1)),
                  reverse=True) + [floor]
    return [[e, d] for e, d in zip(eps, dels)]


def dpsgd_tables(seed):
    """The fig6 and fig7 presets take no inputs; the seed changes nothing."""
    return {"tables": ["fig6_table", "fig7_table"]}


def step_search(seed):
    """One fig8 step search per (q, noise) candidate, stratified in both."""
    rng = random.Random(f"step-search/{seed}")
    calls = []
    for i in range(STEP_Q_STRATA):
        for j in range(STEP_SIGMA_STRATA):
            calls.append({
                "q": _stratum(rng, *STEP_Q_RANGE, i, STEP_Q_STRATA),
                "sigma": _stratum(rng, *STEP_SIGMA_RANGE, j, STEP_SIGMA_STRATA),
            })
    rng.shuffle(calls)
    return {"calls": calls}


def _latin(rng, lo, hi, n):
    """n log-uniform draws, one in each of n equal log-width strata of
    [lo, hi], in random order."""
    xs = [_stratum(rng, lo, hi, i, n) for i in range(n)]
    rng.shuffle(xs)
    return xs


def bulk_queries(seed):
    """In-process selection queries on analytic bases.

    Every instance yields one query of each kind, so the mix is the same
    for every seed: negbin by profile (eta cycles through ETAS) and by
    Renyi curve, binomial, Poisson, noisy argmax over 1-4 rounds, and
    negbin over a point-list base. sigma, m and delta form a Latin
    hypercube over their ranges.
    """
    rng = random.Random(f"bulk-queries/{seed}")
    n_inst = BULK_INSTANCES
    sigmas = _latin(rng, *SIGMA_RANGE, n_inst)
    ms = _latin(rng, *M_RANGE, n_inst)
    deltas = _latin(rng, *DELTA_RANGE, n_inst)
    queries = []
    for i, (sigma, m, delta) in enumerate(zip(sigmas, ms, deltas)):
        eta = ETAS[i % len(ETAS)]
        n = math.ceil(m / rng.uniform(0.05, 0.5)) + 1
        inst = {"instance": i, "sigma": sigma, "m": m, "delta": delta}
        queries += [
            dict(inst, kind="negbin-hs", eta=eta),
            dict(inst, kind="negbin-rdp", eta=eta),
            dict(inst, kind="binomial-hs", n=n),
            dict(inst, kind="poisson-hs"),
            dict(inst, kind="rnm-hs", candidates=max(2, int(m)),
                 rounds=1 + (i // len(ETAS)) % 4),
            dict(inst, kind="points-negbin-hs", eta=eta,
                 points=_points(rng, delta, m)),
        ]
    rng.shuffle(queries)
    return {"queries": queries}


GENERATORS = {
    "cli-query": cli_query,
    "dpsgd-tables": dpsgd_tables,
    "step-search": step_search,
    "bulk-queries": bulk_queries,
}
