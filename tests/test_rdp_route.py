"""The Renyi route against the expressions it ran before its order-grid
terms became module constants, a float eps took a scalar path and every
curve came to lie on the one grid.

A curve's old form is (orders, values): the shared grid and its values,
or, for a Poisson baseline, the sub-grid of the orders its points admit.
The new curve is +inf, a value that bounds nothing, at each order its old
form dropped.  `rdp_to_dp` at a float and at an np.float64 must equal the
old form's array path in hex, with infinite values and with eps out to
+-1e300; the Renyi baselines and the Renyi inverse must equal copies of
their old numpy expressions in hex.
"""

import math

import numpy as np
import pytest

from privsel import profiles
from privsel.countdist import TruncNegBinomial
from privsel.profiles import (
    PointDP,
    RdpCurve,
    default_orders,
    gaussian_rdp_curve,
    rdp_profile,
    rdp_to_dp,
)
from privsel.selection import (
    _rdp_poisson_min,
    rdp_poisson_curve,
    rdp_select_negbin,
    rdp_select_poisson,
)

RNG_SEEDS = range(4)


def old_terms(orders):
    a = np.asarray(orders, dtype=float)
    am1 = a - 1
    return am1, am1 * np.log1p(-1 / a), np.log(a)


def old_rdp_to_dp(orders, values, eps):
    e = np.asarray(eps, dtype=float)
    am1, log_frac, log_a = old_terms(orders)
    with np.errstate(over="ignore"):
        log_d = np.min(am1 * (values - e[..., None]) + log_frac - log_a, axis=-1)
    d = np.exp(np.fmin(log_d, 0.0))
    return float(d) if e.ndim == 0 else d


def old_rdp_select_negbin(base_rdp, eta, gamma):
    orders = np.asarray(default_orders(), dtype=float)
    vals = base_rdp.values
    extra = (eta + 1.0) * float(
        np.min((1.0 - 1.0 / orders) * vals + math.log(1.0 / gamma) / orders))
    log_m = math.log(TruncNegBinomial(eta, gamma).mean())
    return default_orders(), vals + extra + log_m / (orders - 1.0)


def old_rdp_poisson_min(base_rdp, eps_hat, delta_hat, m):
    orders = np.asarray(default_orders(), dtype=float)
    caps = [math.inf if e == 0 else 1.0 + 1.0 / math.expm1(e) for e in eps_hat.tolist()]
    admits = orders <= np.array(caps)[:, None]
    kept = admits.any(axis=0)
    with np.errstate(over="ignore"):
        vals = base_rdp.values + (m * delta_hat)[:, None] + math.log(m) / (orders - 1.0)
    least = np.where(admits, vals, math.inf).min(axis=0)
    return tuple(orders[kept].tolist()), least[kept]


def old_renyi_inverse(orders, values, delta, floor):
    am1, log_frac, log_a = old_terms(orders)
    cand = values + (-math.log(delta) + log_frac - log_a) / am1
    return max(float(np.min(cand)), floor)


def same_curve(curve, orders, values):
    """Whether the curve is its old form (orders, values): the same bits at
    those orders, and +inf at every other order of the grid."""
    at = np.isin(default_orders(), orders)
    return (curve.values[at].tobytes() == values.tobytes()
            and (curve.values[~at] == np.inf).all())


def on_grid(curve):
    return default_orders(), curve.values


def log_uniform(rng, lo_exp, hi_exp):
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def seeded_curves(rng):
    """(curve, old form) for a Gaussian base curve, its negbin baseline, a
    one-point Poisson baseline whose old form is a sub-grid, one with every
    order, and curves with +-inf values."""
    base = gaussian_rdp_curve(log_uniform(rng, -0.5, 1.5))
    values = base.values.copy()
    values[rng.integers(0, values.size, 5)] = np.inf
    with_inf = RdpCurve(values)
    values = rng.uniform(0.0, 1e3, values.size)
    values[rng.integers(0, values.size, 3)] = -np.inf
    negbin = rdp_select_negbin(base, float(rng.uniform(-0.9, 3.0)), log_uniform(rng, -4, -0.05))
    eps_hat, m = float(rng.uniform(0.05, 2.0)), log_uniform(rng, 0, 3)
    return [
        (base, on_grid(base)),
        (negbin, on_grid(negbin)),
        (rdp_select_poisson(base, PointDP(eps_hat, 1e-7), m),
         old_rdp_poisson_min(base, np.array([eps_hat]), np.array([1e-7]), m)),
        *((curve, on_grid(curve)) for curve in (
            rdp_poisson_curve(base, log_uniform(rng, 0, 3)), with_inf, RdpCurve(values))),
    ]


def seeded_eps(rng):
    return [0.0, -0.0, float(rng.uniform(0.0, 20.0)), float(rng.uniform(-5.0, 0.0)),
            log_uniform(rng, -300, 300), -log_uniform(rng, -300, 300), 1e300, -1e300]


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_a_float_eps_is_the_array_path_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        for curve, old in seeded_curves(rng):
            for eps in seeded_eps(rng):
                want = old_rdp_to_dp(*old, np.array([eps]))[0].hex()
                assert old_rdp_to_dp(*old, eps).hex() == want
                for e in (eps, np.float64(eps)):
                    got = rdp_to_dp(curve, e)
                    assert type(got) is float and got.hex() == want
                assert rdp_to_dp(curve, np.array([eps]))[0].hex() == want


def test_a_nan_eps_is_refused_on_both_paths():
    curve = gaussian_rdp_curve(2.0)
    for eps in (math.nan, np.float64(math.nan), np.array([0.5, math.nan]), np.array(math.nan)):
        with pytest.raises(ValueError, match="^eps is NaN$"):
            rdp_to_dp(curve, eps)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_baselines_and_inverse_are_the_old_expressions_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        base = gaussian_rdp_curve(log_uniform(rng, -0.5, 1.5))
        eta, gamma = float(rng.uniform(-0.9, 3.0)), log_uniform(rng, -4, -0.05)
        negbin = rdp_select_negbin(base, eta, gamma)
        old_negbin = old_rdp_select_negbin(base, eta, gamma)
        assert same_curve(negbin, *old_negbin)
        m = log_uniform(rng, 0, 3.5)
        # points that keep every order, a prefix of them, or one
        eps_hat = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(1, 6))))
        if rng.uniform() < 0.5:
            eps_hat[0] = 1e-3
        delta_hat = rdp_to_dp(base, eps_hat)
        poisson = _rdp_poisson_min(base, eps_hat, delta_hat, m)
        old_poisson = old_rdp_poisson_min(base, eps_hat, delta_hat, m)
        assert same_curve(poisson, *old_poisson)
        for curve, old in ((base, on_grid(base)), (negbin, old_negbin), (poisson, old_poisson)):
            for delta in (log_uniform(rng, -14, -0.5), 1e-300):
                floor = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
                got = rdp_profile(curve)._inverse(delta, floor)
                assert got.hex() == old_renyi_inverse(*old, delta, floor).hex()


def test_the_shared_grid_reads_its_terms_as_constants():
    orders = profiles._ORDER_ARRAY
    assert orders.tolist() == list(default_orders()) and not orders.flags.writeable
    terms = (profiles._AM1, profiles._LOG_FRAC, profiles._LOG_A)
    for t, want in zip(terms, old_terms(default_orders())):
        assert not t.flags.writeable and t.tobytes() == want.tobytes()
    # every curve lies on that grid, a Poisson baseline of one point too
    base = gaussian_rdp_curve(3.0)
    for curve in (base, rdp_select_negbin(base, 0.5, 0.01), rdp_poisson_curve(base, 10.0),
                  rdp_select_poisson(base, PointDP(0.5, 1e-7), 10.0)):
        assert curve.values.shape == orders.shape
