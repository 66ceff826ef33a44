"""Command-line interface: profile tables, preset comparisons,
single guarantee queries, the horizon-adjustment procedure, and the
oracle validation suite.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration
error, 3 unreachable target, 4 numerical guard tripped.

At import this module loads numpy and the stdlib only. Each command
imports the privsel modules it reads where it reads them, after its
input is checked, so an argument, base or target error exits before any
scipy import, and a `profile` or `guarantee` call that builds no loss
grid never loads `pld`.  A family field is read after `scipy.special`
loads, so its errors, such as `--n 2.5` or `--rounds 2.5` and their
config forms, exit after that import.  No command loads `scipy.fft`:
`pld` transforms with `numpy.fft`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    EmptyCurveError,
    GridTooCoarseError,
    InfeasibleMeanError,
    MemoryBudgetError,
    NoAdmissibleEps1Error,
    UnreachableTargetError,
)


def __getattr__(name):
    # the package's public names, resolved as `privsel.<name>` resolves them
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# rows a profile table may have
EPS_GRID_MAX_POINTS = 100_000


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _emit_csv(header, rows, out_path):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", newline="") as f:
                f.write(text)
        except OSError as e:
            raise _cannot_write(out_path, e) from e
    else:
        sys.stdout.write(text)


def _cannot_write(path, e):
    return ConfigError(f"cannot write {path}: {e.strerror or e}")


def _writable(path):
    """path, once a file there opens for writing; ConfigError otherwise.
    Called before any table is built.  The file is opened without
    truncation and removed again if this call made it, so a call that
    exits non-zero leaves every output path as it found it."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise _cannot_write(path, e) from e
    if not existed:
        os.remove(path)
    return path


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


# the fields each kind reads; any other field is refused, so no input is
# silently dropped.  A family also lists the methods it accepts, and the
# family None is a query on the bare base.
_BASES = {
    "gaussian": ("sigma", "sensitivity"),
    "subsampled_gaussian": ("q", "sigma", "steps", "sensitivity"),
    "pure": ("eps",),
    "points": ("points",),
}
_FAMILIES = {
    None: ((), ("hs", "rdp")),
    "negbin": (("eta", "gamma", "m"), ("hs", "rdp", "closed")),
    "binomial": (("n", "p", "m"), ("hs",)),
    "poisson": (("m",), ("hs",)),
    "rnm": (("m", "rounds", "monotone"), ("hs", "closed")),
}


def _check_fields(spec, what, fields):
    kind = spec["kind"]
    unread = sorted(set(spec) - {"kind", *fields})
    if unread:
        raise ConfigError(f"{kind} {what} does not read {', '.join(unread)}; "
                          f"its fields are {', '.join(fields)}")


def _merge(cfg, args, section, field_lists):
    """The config section ("base" or "family") with the kind flag and every
    given field flag laid over it; a field's flag is named after its key,
    but for eps, which is --eps-base."""
    spec = _config_section(cfg, section)
    kind = getattr(args, section, None)
    if kind:
        spec["kind"] = kind
    for key in dict.fromkeys(f for fields in field_lists for f in fields):
        v = getattr(args, "eps_base" if key == "eps" else key, None)
        # not `if v`: a flag's text, even "", is checked; unset is None or False
        if v is not None and v is not False:
            spec[key] = v
    return spec


def _grid_spec(args, builds_grid):
    """The --grid-spacing loss grid, None without the flag.  A query that
    builds no loss grid refuses the flag rather than dropping it."""
    spacing = getattr(args, "grid_spacing", None)
    if spacing is None:
        return None
    spacing = _finite(spacing, "grid_spacing")
    if not builds_grid:
        raise ConfigError("--grid-spacing is read only where a loss grid is "
                          "built: a subsampled_gaussian base under hs, "
                          "compare fig6-fig8 and adjust")
    from . import pld
    return pld.GridSpec(spacing=spacing)


def _out_path(args, cfg):
    out = args.out or cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"config 'out' must be a path string, got {out!r}")
    return out and _writable(out)


def _finite(value, name):
    """value, a config number or a flag's text, as a finite float;
    ConfigError otherwise.  A JSON true or false is not a number here,
    though float() reads it as 1 or 0."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{name} must be a number, got {value!r}") from e
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {x}")
    return x


def _real(spec, key, default=None):
    """spec[key] as a finite float, or default when the key is absent
    (an error when there is no default)."""
    if key not in spec:
        if default is None:
            raise ConfigError(f"{spec.get('kind')} needs {key}")
        return default
    return _finite(spec[key], key)


def _count(spec, key, default=None):
    """spec[key] as an integer; a fractional value is refused, not floored."""
    x = _real(spec, key, default)
    if x != int(x):
        raise ConfigError(f"{key} must be an integer, got {x}")
    return int(x)


def _either(fam, a, b):
    """Whichever of keys a and b the family spec gives; both or neither
    is an error, so no input is silently ignored."""
    if (a in fam) == (b in fam):
        raise ConfigError(f"{fam['kind']} family needs exactly one of {a} and {b}")
    return a if a in fam else b


def _sigma_sens(base):
    sigma, sens = _real(base, "sigma"), _real(base, "sensitivity", 1.0)
    if not (sigma > 0 and sens > 0):
        raise ConfigError(f"{base['kind']} base needs sigma > 0 and sensitivity > 0")
    return sigma, sens


def _base_params(base):
    """(kind, params) of a merged base spec, every field checked once:
    (sigma, sensitivity) for gaussian, (q, sigma / sensitivity, steps) for
    subsampled_gaussian, eps for pure, the (eps, delta) list for points."""
    if "kind" not in base:
        raise ConfigError("no base mechanism given (config 'base' or --base)")
    kind = base["kind"]
    if not (isinstance(kind, str) and kind in _BASES):
        raise ConfigError(f"unknown base kind {kind!r}")
    _check_fields(base, "base", _BASES[kind])
    if kind == "gaussian":
        return kind, _sigma_sens(base)
    if kind == "subsampled_gaussian":
        sigma, sens = _sigma_sens(base)
        return kind, (_real(base, "q"), sigma / sens, _count(base, "steps", 1))
    if kind == "pure":
        return kind, _real(base, "eps")
    try:
        return kind, [(_finite(e, "eps"), _finite(d, "delta"))
                      for e, d in base["points"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad points list: {e}") from e


def _build_base(kind, params, method="hs", grid=None):
    """What `method` reads of a parsed base: its Renyi curve for rdp,
    otherwise its privacy profile."""
    if kind == "subsampled_gaussian":
        # pld loads once the whole query is checked
        from . import pld
        params = pld.SubsampledGaussianParams(*params)
        if method == "rdp":
            return pld.subsampled_rdp_curve(params)
        return pld.subsampled_gaussian_profile(params, grid)
    from . import profiles
    if method == "rdp":
        if kind == "gaussian":
            return profiles.gaussian_rdp_curve(*params)
        raise ConfigError("method rdp needs a gaussian or subsampled_gaussian base")
    if kind == "gaussian":
        return profiles.gaussian_profile(*params)
    if kind == "pure":
        return profiles.profile_from_points([(params, 0.0)])
    return profiles.profile_from_points(params)


def _count_dist(family, fam):
    """The run-count distribution of a negbin, binomial or poisson spec."""
    from . import countdist
    if family == "negbin":
        eta = _real(fam, "eta", 1.0)
        if _either(fam, "gamma", "m") == "gamma":
            return countdist.TruncNegBinomial(eta, _real(fam, "gamma"))
        return countdist.from_expected("negbin", _real(fam, "m"), shape=eta)
    if family == "binomial":
        n = _count(fam, "n")
        if _either(fam, "p", "m") == "p":
            return countdist.Binomial(n, _real(fam, "p"))
        return countdist.from_expected("binomial", _real(fam, "m"), trials=n)
    return countdist.from_expected("poisson", _real(fam, "m"))


def _eps_grid(args):
    spec = getattr(args, "eps_grid", None) or "0:5:0.1"
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as e:
        raise ConfigError(f"bad eps grid {spec!r}, want lo:hi:step") from e
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"bad eps grid {spec!r}: bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad eps grid {spec!r}: need step > 0 and hi >= lo")
    # checked before rounding: the quotient may overflow to inf
    if not (hi - lo) / step + 1 <= EPS_GRID_MAX_POINTS:
        raise ConfigError(f"eps grid {spec!r} exceeds {EPS_GRID_MAX_POINTS} points")
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n)]


def cmd_profile(args):
    cfg = _load_config(args)
    out = _out_path(args, cfg)
    kind, params = _base_params(_merge(cfg, args, "base", _BASES.values()))
    profile = _build_base(kind, params,
                          grid=_grid_spec(args, kind == "subsampled_gaussian"))
    rows = [(e, profile(e)) for e in _eps_grid(args)]
    _emit_csv(("eps", "delta"), rows, out)
    return 0


# each preset's tables, read off the presets module at call time, so
# wrappers installed on presets are seen
_PRESETS = {
    "fig1": lambda presets, grid: [presets.fig1_table()],
    "fig2": lambda presets, grid: [presets.fig2_table()],
    "fig3": lambda presets, grid: [presets.fig3_table()],
    "fig4": lambda presets, grid: presets.fig4_tables(),
    "fig6": lambda presets, grid: [presets.fig6_table(grid=grid)],
    "fig7": lambda presets, grid: [presets.fig7_table(grid=grid)],
    "fig8": lambda presets, grid: [presets.fig8_adjust_table(grid=grid)],
}
# the presets that build a loss grid, so the only ones --grid-spacing reaches
_GRID_PRESETS = ("fig6", "fig7", "fig8")
# the preset that also returns a count CDF table, written beside --out
_KCDF_PRESET = "fig4"


def cmd_compare(args):
    build = _PRESETS.get(args.preset)
    if build is None:
        raise ConfigError(f"unknown preset {args.preset!r}, "
                          f"choose from {', '.join(_PRESETS)}")
    grid = _grid_spec(args, args.preset in _GRID_PRESETS)
    out = _out_path(args, {})
    # fig4's count CDF table: a second file beside --out, else after a blank line
    kout = None
    if out and args.preset == _KCDF_PRESET:
        stem, dot, ext = out.rpartition(".")
        kout = _writable(f"{stem}_kcdf.{ext}" if dot else f"{out}_kcdf")
    from . import presets
    (header, rows), *extra = build(presets, grid)
    _emit_csv(header, rows, out)
    for kheader, krows in extra:
        if not kout:
            sys.stdout.write("\n")
        _emit_csv(kheader, krows, kout)
    return 0


def _resolve_rnm(kind, params, fam, method, delta):
    from . import profiles, rnm
    if kind != "gaussian":
        raise ConfigError("rnm needs a gaussian base")
    sigma, sens = params
    monotone = fam.get("monotone", False)
    if not isinstance(monotone, bool):
        raise ConfigError(f"monotone must be true or false, got {monotone!r}")
    spec = rnm.RnmSpec(_count(fam, "m"), monotone, sigma)
    rounds = _count(fam, "rounds", 1)
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if method == "closed":
        if monotone or rounds != 1:
            raise ConfigError("closed-form rnm needs one non-monotone round")
        if delta is None:
            raise ConfigError("closed-form rnm guarantee needs --delta")
        eps = rnm.rnm_gaussian_eps(sigma / sens, spec.candidates, delta)
        return profiles.profile_from_points([(eps, delta)]), math.nan, eps
    comp = spec.noise_profile(sens * math.sqrt(rounds))
    return rnm.rnm_composition_profile(comp, spec.candidates, rounds), math.nan, None


def _resolve(base, fam, method, args):
    """(profile, eps1, direct) of a guarantee query, building only what
    the method reads; direct is a closed-form eps, reported as-is instead
    of being read back off the profile."""
    kind, params = _base_params(base)
    family = None if fam is None else fam.get("kind")
    if fam is not None and not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"unknown family kind {family!r}")
    fields, methods = _FAMILIES[family]
    if not (isinstance(method, str) and method in methods):
        raise ConfigError(f"method {method!r} is not available for "
                          f"{family or 'a bare base'}, choose from "
                          f"{', '.join(methods)}")
    if fam is not None:
        _check_fields(fam, "family", fields)
    if args.eps1 is not None and (family in (None, "rnm") or method != "hs"):
        raise ConfigError("--eps1 is read only by the hs bound of a negbin, "
                          "binomial or poisson family")
    grid = _grid_spec(args, kind == "subsampled_gaussian" and method == "hs")
    from . import profiles, selection
    if family is None:
        built = _build_base(kind, params, method, grid)
        return (profiles.rdp_profile(built) if method == "rdp" else built), math.nan, None
    if family == "rnm":
        return _resolve_rnm(kind, params, fam, method, args.delta)
    dist = _count_dist(family, fam)
    if method == "closed" and kind == "pure":
        # the pure-base form depends on the count only through its shape
        eps = selection.select_negbin_pure(params, dist.shape)
        return profiles.profile_from_points([(eps, 0.0)]), math.nan, eps
    if method == "hs":
        strategy = "optimized" if args.eps1 is None else args.eps1
        res = selection.bound_for_count(_build_base(kind, params, grid=grid), dist, strategy)
        return res.profile, res.eps1, None
    if method == "rdp":
        curve = selection.rdp_select_negbin(_build_base(kind, params, "rdp"),
                                            dist.shape, dist.success)
        return profiles.rdp_profile(curve), math.nan, None
    if kind != "gaussian":
        raise ConfigError("closed-form negbin needs a pure or gaussian base")
    if args.delta is None:
        raise ConfigError("closed-form negbin guarantee needs --delta")
    sigma, sens = params
    eps = selection.select_gdp_eps(sigma / sens, dist.shape, dist.success,
                                   args.delta)
    return profiles.profile_from_points([(eps, args.delta)]), math.nan, eps


def cmd_guarantee(args):
    cfg = _load_config(args)
    if args.delta is None and args.eps is None:
        raise ConfigError("give a target: --delta or --eps")
    if args.delta is not None and args.eps is not None:
        raise ConfigError("give exactly one of --delta and --eps")
    # the target flags' text is read as a config number is
    for key in ("delta", "eps", "eps1"):
        if getattr(args, key) is not None:
            setattr(args, key, _finite(getattr(args, key), key))
    method = args.method or cfg.get("method", "hs")
    base = _merge(cfg, args, "base", _BASES.values())
    fam = _merge(cfg, args, "family", (fields for fields, _ in _FAMILIES.values()))
    profile, eps1, direct = _resolve(base, fam or None, method, args)
    if args.delta is not None:
        from . import profiles
        eps = direct if direct is not None else profiles.epsilon_for_delta(
            profile, args.delta)
        delta = args.delta
    else:
        eps = args.eps
        delta = profile(args.eps)
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"eps": eps, "delta": delta, "method": method,
             "eps1": None if math.isnan(eps1) else eps1}) + "\n")
    else:
        e1 = "nan" if math.isnan(eps1) else _fmt(eps1)
        sys.stdout.write(
            f"eps={_fmt(eps)} delta={_fmt(delta)} "
            f"method={method} eps1={e1}\n")
    return 0


def cmd_adjust(args):
    cfg = _load_config(args)
    out = _out_path(args, cfg)
    # only the keys given reach the table; it holds the defaults
    given = {}
    raw = args.sigmas.split(",") if args.sigmas is not None else cfg.get("sigmas")
    if raw is not None:
        if not isinstance(raw, list):
            raise ConfigError(f"config 'sigmas' must be a list, got {raw!r}")
        given["sigmas"] = tuple(_finite(s, "sigmas") for s in raw)
        if not given["sigmas"]:
            raise ConfigError("candidate list is empty")
    for key in ("q", "eps_q", "delta", "m", "eta"):
        v = getattr(args, key)
        v = cfg.get(key) if v is None else v
        if v is not None:
            given[key] = _finite(v, key)
    grid = _grid_spec(args, True)
    from . import presets
    header, rows = presets.fig8_adjust_table(**given, grid=grid)
    _emit_csv(header, rows, out)
    return 0


def _oracle_checks():
    from .countdist import Binomial, Poisson
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
    from .profiles import gaussian_profile
    from .selection import bound_for_count

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

    one = Binomial(1, 1 - 1e-12)
    sel_gap = abs(selection_exact_divergence(pair, one, 1.0)
                  - hs_divergence_quadrature(pair, 1.0))
    checks.append(("single-run selection equals base", sel_gap < 1e-9,
                   f"gap {sel_gap:.2e}"))

    worst_excess = -math.inf
    for _, spec, dist in SELECTION_INSTANCES:
        # the bound `guarantee` builds for this base and count
        bound = bound_for_count(_build_base(*_base_params(spec)), dist).profile(2.0)
        exact = selection_exact_divergence(instance_pair(spec), dist, 2.0)
        worst_excess = max(worst_excess, exact - bound)
    checks.append(("selection bound dominates exact", worst_excess <= 1e-12,
                   f"worst excess {worst_excess:.3e} over "
                   f"{len(SELECTION_INSTANCES)} instances"))

    rng_dist = Poisson(5.0)

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
        p.add_argument("--base", choices=list(_BASES))
        p.add_argument("--sigma")
        p.add_argument("--sensitivity")
        p.add_argument("--q")
        p.add_argument("--steps")
        p.add_argument("--eps-base", dest="eps_base")
        p.add_argument("--grid-spacing", dest="grid_spacing")
        p.add_argument("--out")

    p = sub.add_parser("profile", help="base mechanism delta(eps) table")
    add_base_flags(p)
    p.add_argument("--eps-grid", dest="eps_grid",
                   help="lo:hi:step, default 0:5:0.1")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("compare", help="preset comparison tables")
    p.add_argument("preset", help=", ".join(_PRESETS))
    p.add_argument("--grid-spacing", dest="grid_spacing")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("guarantee", help="single (eps, delta) query")
    add_base_flags(p)
    p.add_argument("--family", choices=[f for f in _FAMILIES if f])
    p.add_argument("--eta")
    p.add_argument("--gamma")
    p.add_argument("--m")
    p.add_argument("--n")
    p.add_argument("--p")
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--rounds")
    p.add_argument("--method", choices=list(dict.fromkeys(
        m for _, methods in _FAMILIES.values() for m in methods)))
    p.add_argument("--delta")
    p.add_argument("--eps")
    p.add_argument("--eps1", help="fix eps1 instead of optimizing it")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_guarantee)

    p = sub.add_parser("adjust", help="max step count per noise candidate")
    p.add_argument("--config")
    p.add_argument("--q")
    p.add_argument("--eps-q", dest="eps_q")
    p.add_argument("--delta")
    p.add_argument("--m")
    p.add_argument("--eta")
    p.add_argument("--sigmas", help="comma-separated noise candidates")
    p.add_argument("--grid-spacing", dest="grid_spacing")
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
