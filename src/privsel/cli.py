"""Command-line interface: profile tables, preset comparisons,
single guarantee queries, the horizon-adjustment procedure, and the
oracle validation suite.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration
error, 3 unreachable target, 4 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import presets
from .countdist import from_expected
from .errors import (
    ConfigError,
    EmptyCurveError,
    GridTooCoarseError,
    InfeasibleMeanError,
    MemoryBudgetError,
    NoAdmissibleEps1Error,
    UnreachableTargetError,
)
from .pld import GridSpec, SubsampledGaussianParams, subsampled_gaussian_profile
from .profiles import (
    PointDP,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
)
from .rnm import rnm_composition_profile, rnm_gaussian_eps, rnm_profile
from .selection import (
    rdp_select_negbin,
    select_binomial_profile,
    select_negbin_profile,
    select_negbin_pure,
    select_poisson_profile,
)

_PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _emit_csv(header, rows, out_path):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args):
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    return cfg


def _config_section(cfg, name):
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config '{name}' must be a JSON object, "
                          f"got {type(section).__name__}")
    return dict(section)


def _merge_base(cfg, args):
    base = _config_section(cfg, "base")
    if getattr(args, "base", None):
        base["kind"] = args.base
    for flag, key in (("sigma", "sigma"), ("sensitivity", "sensitivity"),
                      ("q", "q"), ("steps", "steps"), ("eps_base", "eps")):
        v = getattr(args, flag, None)
        if v is not None:
            base[key] = v
    if "kind" not in base:
        raise ConfigError("no base mechanism given (config 'base' or --base)")
    return base


def _merge_family(cfg, args):
    fam = _config_section(cfg, "family")
    if getattr(args, "family", None):
        fam["kind"] = args.family
    for flag, key in (("eta", "eta"), ("gamma", "gamma"), ("m", "m"),
                      ("n", "n"), ("p", "p"), ("rounds", "rounds")):
        v = getattr(args, flag, None)
        if v is not None:
            fam[key] = v
    if getattr(args, "monotone", False):
        fam["monotone"] = True
    return fam if fam else None


def _grid_spec(args):
    spacing = getattr(args, "grid_spacing", None)
    if spacing is None:
        return None
    return GridSpec(spacing=spacing)


def _build_base_profile(base, grid=None):
    kind = base.get("kind")
    try:
        if kind == "gaussian":
            return gaussian_profile(float(base["sigma"]),
                                    float(base.get("sensitivity", 1.0)))
        if kind in ("subsampled_gaussian", "subsampled-gaussian"):
            params = SubsampledGaussianParams(
                float(base["q"]), float(base["sigma"]),
                int(base.get("steps", 1)))
            return subsampled_gaussian_profile(params, grid)
        if kind == "pure":
            return profile_from_points([(float(base["eps"]), 0.0)])
        if kind in ("points", "pointwise"):
            pts = [(float(e), float(d)) for e, d in base["points"]]
            return profile_from_points(pts)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad base mechanism spec: {e}") from e
    raise ConfigError(f"unknown base kind {kind!r}")


def _build_base_rdp(base):
    kind = base.get("kind")
    try:
        if kind == "gaussian":
            return gaussian_rdp_curve(float(base["sigma"]),
                                      float(base.get("sensitivity", 1.0)))
        if kind in ("subsampled_gaussian", "subsampled-gaussian"):
            params = SubsampledGaussianParams(
                float(base["q"]), float(base["sigma"]),
                int(base.get("steps", 1)))
            return presets.subsampled_rdp_curve(params)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad base mechanism spec: {e}") from e
    raise ConfigError(f"method rdp needs a gaussian or subsampled_gaussian base")


def _family_gamma(fam):
    if "gamma" in fam:
        return float(fam["gamma"])
    if "m" in fam:
        eta = float(fam.get("eta", 1.0))
        return from_expected("negbin", float(fam["m"]), shape=eta).success
    raise ConfigError("negbin family needs gamma or m")


def _eps_grid(args):
    spec = getattr(args, "eps_grid", None) or "0:5:0.1"
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as e:
        raise ConfigError(f"bad eps grid {spec!r}, want lo:hi:step") from e
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad eps grid {spec!r}: need step > 0 and hi >= lo")
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n)]


def cmd_profile(args):
    cfg = _load_config(args)
    base = _merge_base(cfg, args)
    profile = _build_base_profile(base, _grid_spec(args))
    grid = _eps_grid(args)
    rows = [(e, profile(e)) for e in grid]
    _emit_csv(("eps", "delta"), rows, args.out or cfg.get("out"))
    return 0


def cmd_compare(args):
    if args.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}, "
                          f"choose from {', '.join(_PRESETS)}")
    grid = _grid_spec(args)
    out = args.out
    if args.preset == "fig1":
        header, rows = presets.fig1_table()
    elif args.preset == "fig2":
        header, rows = presets.fig2_table()
    elif args.preset == "fig3":
        header, rows = presets.fig3_table()
    elif args.preset == "fig4":
        (header, rows), (kheader, krows) = presets.fig4_tables()
        if out:
            stem, dot, ext = out.rpartition(".")
            kout = f"{stem}_kcdf.{ext}" if dot else f"{out}_kcdf"
            _emit_csv(header, rows, out)
            _emit_csv(kheader, krows, kout)
        else:
            _emit_csv(header, rows, None)
            sys.stdout.write("\n")
            _emit_csv(kheader, krows, None)
        return 0
    elif args.preset == "fig6":
        header, rows = presets.fig6_table(grid=grid)
    elif args.preset == "fig7":
        header, rows = presets.fig7_table(grid=grid)
    else:
        header, rows = presets.fig8_adjust_table(grid=grid)
    _emit_csv(header, rows, out)
    return 0


def _guarantee_negbin(base_profile, base, fam, method, args):
    """Returns (profile, eps1, direct) where direct is the closed-form eps
    itself, reported as-is instead of being read back off the profile."""
    eta = float(fam.get("eta", 1.0))
    strategy = "optimized" if args.eps1 is None else args.eps1
    if method == "hs":
        res = select_negbin_profile(base_profile, eta, _family_gamma(fam),
                                    strategy)
        return res.profile, res.eps1, None
    if method == "rdp":
        curve = rdp_select_negbin(_build_base_rdp(base), eta, _family_gamma(fam))
        return rdp_profile(curve), math.nan, None
    if method in ("closed", "closed-form"):
        if base.get("kind") == "pure":
            # the pure-base form depends on the count only through its shape
            eps = select_negbin_pure(float(base["eps"]), eta)
            return profile_from_points([(eps, 0.0)]), math.nan, eps
        if base.get("kind") == "gaussian":
            if args.delta is None:
                raise ConfigError("closed-form negbin guarantee needs --delta")
            from .selection import select_gdp_eps

            eps = select_gdp_eps(float(base["sigma"]), eta, _family_gamma(fam),
                                 args.delta)
            return profile_from_points([(eps, args.delta)]), math.nan, eps
        raise ConfigError("closed-form negbin needs a pure or gaussian base")
    raise ConfigError(f"unknown method {method!r}")


def cmd_guarantee(args):
    cfg = _load_config(args)
    if args.delta is None and args.eps is None:
        raise ConfigError("give a target: --delta or --eps")
    if args.delta is not None and args.eps is not None:
        raise ConfigError("give exactly one of --delta and --eps")
    base = _merge_base(cfg, args)
    fam = _merge_family(cfg, args)
    method = args.method or cfg.get("method", "hs")
    grid = _grid_spec(args)

    base_profile = _build_base_profile(base, grid)
    eps1 = math.nan
    direct = None
    if fam is None:
        if method == "rdp":
            profile = rdp_profile(_build_base_rdp(base))
        else:
            profile = base_profile
    else:
        kind = fam.get("kind")
        if kind == "negbin":
            profile, eps1, direct = _guarantee_negbin(base_profile, base, fam,
                                                      method, args)
        elif kind == "binomial":
            try:
                n = int(fam["n"])
            except KeyError as e:
                raise ConfigError("binomial family needs n") from e
            p = float(fam["p"]) if "p" in fam else float(fam["m"]) / n
            strategy = "optimized" if args.eps1 is None else args.eps1
            res = select_binomial_profile(base_profile, n, p, strategy)
            profile, eps1 = res.profile, res.eps1
        elif kind == "poisson":
            try:
                m = float(fam["m"])
            except KeyError as e:
                raise ConfigError("poisson family needs m") from e
            strategy = "optimized" if args.eps1 is None else args.eps1
            res = select_poisson_profile(base_profile, m, strategy)
            profile, eps1 = res.profile, res.eps1
        elif kind == "rnm":
            try:
                m = int(fam["m"])
            except KeyError as e:
                raise ConfigError("rnm family needs m (candidate count)") from e
            rounds = int(fam.get("rounds", 1))
            monotone = bool(fam.get("monotone", False))
            if method in ("closed", "closed-form"):
                if base.get("kind") != "gaussian" or monotone:
                    raise ConfigError(
                        "closed-form rnm needs a gaussian base, non-monotone")
                if args.delta is None:
                    raise ConfigError("closed-form rnm guarantee needs --delta")
                eps = rnm_gaussian_eps(float(base["sigma"]), m, args.delta)
                profile = profile_from_points([(eps, args.delta)])
                direct = eps
            else:
                if base.get("kind") != "gaussian":
                    raise ConfigError("rnm needs a gaussian base")
                sigma = float(base["sigma"])
                sens = 1.0 if monotone else 2.0
                if rounds == 1:
                    profile = rnm_profile(gaussian_profile(sigma, sens), m)
                else:
                    comp = gaussian_profile(sigma, sens * math.sqrt(rounds))
                    profile = rnm_composition_profile(comp, m, rounds)
        else:
            raise ConfigError(f"unknown family kind {fam.get('kind')!r}")

    if args.delta is not None:
        eps = direct if direct is not None else epsilon_for_delta(
            profile, args.delta)
        delta = args.delta
    else:
        eps = args.eps
        delta = profile(args.eps)
    method_name = method if fam or method == "rdp" else "hs"
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"eps": eps, "delta": delta, "method": method_name,
             "eps1": None if math.isnan(eps1) else eps1}) + "\n")
    else:
        e1 = "nan" if math.isnan(eps1) else _fmt(eps1)
        sys.stdout.write(
            f"eps={_fmt(eps)} delta={_fmt(delta)} "
            f"method={method_name} eps1={e1}\n")
    return 0


def cmd_adjust(args):
    cfg = _load_config(args)
    sigmas = None
    if args.sigmas:
        try:
            sigmas = tuple(float(s) for s in args.sigmas.split(","))
        except ValueError as e:
            raise ConfigError(f"bad --sigmas {args.sigmas!r}") from e
    elif "sigmas" in cfg:
        try:
            sigmas = tuple(float(s) for s in cfg["sigmas"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad config 'sigmas': {e}") from e
    if sigmas is not None and len(sigmas) == 0:
        raise ConfigError("candidate list is empty")
    header, rows = presets.fig8_adjust_table(
        q=args.q if args.q is not None else cfg.get("q"),
        eps_q=args.eps_q if args.eps_q is not None else cfg.get("eps_q"),
        delta=args.delta if args.delta is not None else cfg.get("delta"),
        m=args.m if args.m is not None else cfg.get("m"),
        eta=args.eta if args.eta is not None else cfg.get("eta"),
        sigmas=sigmas,
        grid=_grid_spec(args),
    )
    _emit_csv(header, rows, args.out or cfg.get("out"))
    return 0


def _instance_bound(base_spec, dist):
    """Analytic bound profile matching a SELECTION_INSTANCES entry."""
    from .selection import bound_for_count

    if base_spec[0] == "gaussian":
        base = gaussian_profile(base_spec[1], 1.0)
    else:
        base = subsampled_gaussian_profile(
            SubsampledGaussianParams(base_spec[1], base_spec[2], 1))
    return bound_for_count(base, dist).profile


def _oracle_checks():
    from .countdist import Binomial as BinomialDist
    from .countdist import Poisson as PoissonDist
    from .oracles import (
        SELECTION_INSTANCES,
        argmax_probabilities,
        gaussian_pair,
        hs_divergence_quadrature,
        instance_pair,
        mc_selection_sample,
        rnm_exact_divergence,
        selection_exact_divergence,
        selection_mean_quadrature,
    )

    checks = []
    pair = gaussian_pair(0.0, 1.0, 4.0)
    prof = gaussian_profile(4.0, 1.0)
    worst = max(abs(hs_divergence_quadrature(pair, e) - prof(e))
                for e in (0.0, 0.5, 1.0, 2.0))
    checks.append(("gaussian profile vs quadrature", worst < 1e-10,
                   f"max abs diff {worst:.2e}"))

    tv_gap = abs(hs_divergence_quadrature(pair, 0.0)
                 - hs_divergence_quadrature(pair.swapped(), 0.0))
    checks.append(("total variation direction symmetry", tv_gap < 1e-10,
                   f"gap {tv_gap:.2e}"))

    probs = argmax_probabilities(np.array([0.0, 0.5, 1.0]), 1.0)
    gap = abs(float(np.sum(probs)) - 1.0)
    checks.append(("argmax probabilities sum to 1", gap < 1e-10,
                   f"gap {gap:.2e}"))

    mu = np.array([0.0, 0.0, 0.0])
    mu_p = np.array([-1.0, 1.0, -1.0])
    viol = 0.0
    for eps in (0.0, 0.5, 1.0):
        exact = rnm_exact_divergence(mu, mu_p, 1.0, eps)
        bound = 3 * gaussian_profile(1.0, 2.0)(eps)
        viol = max(viol, exact - bound)
    checks.append(("noisy-argmax bound dominates exact", viol <= 1e-12,
                   f"worst excess {viol:.2e}"))

    one = BinomialDist(1, 1 - 1e-12)
    sel_gap = abs(selection_exact_divergence(pair, one, 1.0)
                  - hs_divergence_quadrature(pair, 1.0))
    checks.append(("single-run selection equals base", sel_gap < 1e-9,
                   f"gap {sel_gap:.2e}"))

    worst_excess = -math.inf
    for _, base_spec, dist in SELECTION_INSTANCES:
        inst_pair = instance_pair(base_spec)
        exact = selection_exact_divergence(inst_pair, dist, 2.0)
        bound = _instance_bound(base_spec, dist)(2.0)
        worst_excess = max(worst_excess, exact - bound)
    checks.append(("selection bound dominates exact", worst_excess <= 1e-12,
                   f"worst excess {worst_excess:.3e} over "
                   f"{len(SELECTION_INSTANCES)} instances"))

    rng_dist = PoissonDist(5.0)

    def sampler(rng, size):
        return rng.normal(0.0, 1.0, size)

    summary = mc_selection_sample(sampler, rng_dist, 100_000)
    analytic = selection_mean_quadrature(gaussian_pair(0.0, 0.0, 1.0), rng_dist)
    ci = 4.0 * 3.0 / math.sqrt(summary.trials)
    mean_gap = abs(summary.mean_best() - analytic)
    checks.append(("sampled best-value mean vs quadrature", mean_gap < ci,
                   f"gap {mean_gap:.3e} ci {ci:.3e}"))
    return checks


def cmd_oracle(args):
    checks = _oracle_checks()
    failed = 0
    for name, ok, detail in checks:
        mark = "ok  " if ok else "FAIL"
        sys.stdout.write(f"{mark}  {name:<42} {detail}\n")
        failed += 0 if ok else 1
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} oracle checks passed\n")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="privsel",
        description="Privacy accounting for noisy-argmax and best-of-many "
                    "selection mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_base_flags(p):
        p.add_argument("--config", help="JSON scenario file; flags override it")
        p.add_argument("--base", choices=["gaussian", "subsampled_gaussian",
                                          "pure", "points"])
        p.add_argument("--sigma", type=float)
        p.add_argument("--sensitivity", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--eps-base", dest="eps_base", type=float)
        p.add_argument("--grid-spacing", dest="grid_spacing", type=float)
        p.add_argument("--out")

    p = sub.add_parser("profile", help="base mechanism delta(eps) table")
    add_base_flags(p)
    p.add_argument("--eps-grid", dest="eps_grid",
                   help="lo:hi:step, default 0:5:0.1")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("compare", help="preset comparison tables")
    p.add_argument("preset", help=", ".join(_PRESETS))
    p.add_argument("--grid-spacing", dest="grid_spacing", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("guarantee", help="single (eps, delta) query")
    add_base_flags(p)
    p.add_argument("--family", choices=["negbin", "binomial", "poisson", "rnm"])
    p.add_argument("--eta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--rounds", type=int)
    p.add_argument("--method", choices=["hs", "rdp", "closed"])
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps1", type=float,
                   help="fix eps1 instead of optimizing it")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_guarantee)

    p = sub.add_parser("adjust", help="max step count per noise candidate")
    p.add_argument("--config")
    p.add_argument("--q", type=float)
    p.add_argument("--eps-q", dest="eps_q", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--sigmas", help="comma-separated noise candidates")
    p.add_argument("--grid-spacing", dest="grid_spacing", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("oracle", help="run the oracle validation table")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InfeasibleMeanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (UnreachableTargetError, NoAdmissibleEps1Error, EmptyCurveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (GridTooCoarseError, MemoryBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
