"""Command-line interface: profile tables, preset comparisons,
single guarantee queries, the horizon-adjustment procedure, and the
oracle validation suite.

The module reads arguments, checks the scenario and prints, driven by
tables: `_FLAGS` holds every option and the top-level config keys each
command reads (the scenario field flags are derived from `_BASES` and
`_FAMILIES`), `_PRESETS` the `compare` tables, `_EXIT_CODES` the exit
code of each error.  `oracles.oracle_checks` builds the oracle rows.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration
error, 3 unreachable target, 4 numerical guard tripped.

At import this module loads numpy and the stdlib only. Each command
imports what it computes with after its input is checked, so an
argument, base or target error exits before any scipy import; a family
field error (`--n 2.5`) exits after `scipy.special` loads.  A `profile` or
`guarantee` call that builds no loss grid never loads `pld`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (ConfigError, EmptyCurveError, GridTooCoarseError, InfeasibleMeanError,
                     MemoryBudgetError, NoAdmissibleEps1Error, UnreachableTargetError)


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
    lines = [",".join(header), *(",".join(_fmt(v) for v in row) for row in rows)]
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
    """The --config object, {} without the flag; a top-level key the
    command does not read is refused, so no input is silently dropped."""
    if not args.config:
        return {}
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    keys = [_dest(flag) for flag, _, config, _ in _FLAGS if args.command in config.split()]
    _refuse_unread(cfg, keys, f"{args.command} config", "keys")
    return cfg


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


def _field_flags(section):
    """(field, flag, argparse extras) of each field of the "base" or
    "family" kinds, in table order, none for any other name.  A field's
    flag is --<field>, but pure's eps is --eps-base; points has no flag."""
    kinds = {"base": _BASES.values(),
             "family": [fields for fields, _ in _FAMILIES.values()]}.get(section, ())
    for field in dict.fromkeys(f for fields in kinds for f in fields if f != "points"):
        yield (field, "--eps-base" if field == "eps" else f"--{field}",
               {"action": "store_true"} if field == "monotone" else {})


def _dest(flag):
    """The args attribute, and the config key, of a flag."""
    return flag.lstrip("-").replace("-", "_")


def _refuse_unread(given, read, what, noun="fields"):
    if unread := sorted(set(given) - set(read)):
        raise ConfigError(f"{what} does not read {', '.join(unread)}; "
                          f"its {noun} are {', '.join(read)}")


def _merge(cfg, args, section):
    """The config section ("base" or "family") with the kind flag and every
    given field flag laid over it."""
    spec = cfg.get(section, {})
    if not isinstance(spec, dict):
        raise ConfigError(f"config '{section}' must be a JSON object, got {type(spec).__name__}")
    spec = dict(spec)
    if getattr(args, section):
        spec["kind"] = getattr(args, section)
    for field, flag, _ in _field_flags(section):
        v = getattr(args, _dest(flag))
        # not `if v`: a flag's text, even "", is checked; unset is None or False
        if v is not None and v is not False:
            spec[field] = v
    return spec


def _grid_spec(args, builds_grid):
    """The --grid-spacing loss grid, None without the flag.  A query that
    builds no loss grid refuses the flag rather than dropping it."""
    if args.grid_spacing is None:
        return None
    spacing = _finite(args.grid_spacing, "grid_spacing")
    if not builds_grid:
        raise ConfigError("--grid-spacing is read only where a loss grid is built: a "
                          "subsampled_gaussian base under hs, compare fig6-fig8 and adjust")
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


def _base_params(base):
    """(kind, params) of a merged base spec, every field checked once:
    (sigma, sensitivity) for gaussian, (q, sigma / sensitivity, steps) for
    subsampled_gaussian, eps for pure, the (eps, delta) list for points."""
    if "kind" not in base:
        raise ConfigError("no base mechanism given (config 'base' or --base)")
    kind = base["kind"]
    if not (isinstance(kind, str) and kind in _BASES):
        raise ConfigError(f"unknown base kind {kind!r}")
    _refuse_unread(base.keys() - {"kind"}, _BASES[kind], f"{kind} base")
    if kind in ("gaussian", "subsampled_gaussian"):
        sigma, sens = _real(base, "sigma"), _real(base, "sensitivity", 1.0)
        if not (sigma > 0 and sens > 0):
            raise ConfigError(f"{kind} base needs sigma > 0 and sensitivity > 0")
        if kind == "gaussian":
            return kind, (sigma, sens)
        return kind, (_real(base, "q"), sigma / sens, _count(base, "steps", 1))
    if kind == "pure":
        return kind, _real(base, "eps")
    try:
        return kind, [(_finite(e, "eps"), _finite(d, "delta")) for e, d in base["points"]]
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
    spec = args.eps_grid or "0:5:0.1"
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
    """base mechanism delta(eps) table"""
    cfg = _load_config(args)
    out = _out_path(args, cfg)
    kind, params = _base_params(_merge(cfg, args, "base"))
    profile = _build_base(kind, params, grid=_grid_spec(args, kind == "subsampled_gaussian"))
    rows = [(e, profile(e)) for e in _eps_grid(args)]
    _emit_csv(("eps", "delta"), rows, out)
    return 0


# each preset: its presets function, looked up at call time so wrappers
# installed on presets are seen; whether it builds a loss grid, so reads
# --grid-spacing; and the file suffix of its second table, a count CDF
_PRESETS = {
    "fig1": ("fig1_table", False, None),
    "fig2": ("fig2_table", False, None),
    "fig3": ("fig3_table", False, None),
    "fig4": ("fig4_tables", False, "_kcdf"),
    "fig6": ("fig6_table", True, None),
    "fig7": ("fig7_table", True, None),
    "fig8": ("fig8_adjust_table", True, None),
}


def cmd_compare(args):
    """preset comparison tables"""
    if args.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}, "
                          f"choose from {', '.join(_PRESETS)}")
    name, builds_grid, suffix = _PRESETS[args.preset]
    grid = _grid_spec(args, builds_grid)
    out = _out_path(args, {})
    # the count CDF table: a second file beside --out, else after a blank line
    kout = None
    if out and suffix:
        stem, dot, ext = out.rpartition(".")
        kout = _writable(f"{stem}{suffix}.{ext}" if dot else f"{out}{suffix}")
    from . import presets
    build = getattr(presets, name)
    tables = build(grid=grid) if builds_grid else build()
    table, *extra = tables if suffix else [tables]
    _emit_csv(*table, out)
    for table in extra:
        sys.stdout.write("" if kout else "\n")
        _emit_csv(*table, kout)
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
    family = fam.get("kind")
    if fam and not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"unknown family kind {family!r}")
    fields, methods = _FAMILIES[family]
    if not (isinstance(method, str) and method in methods):
        raise ConfigError(f"method {method!r} is not available for {family or 'a bare base'}"
                          f", choose from {', '.join(methods)}")
    _refuse_unread(fam.keys() - {"kind"}, fields, f"{family} family")
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
    eps = selection.select_gdp_eps(sigma / sens, dist.shape, dist.success, args.delta)
    return profiles.profile_from_points([(eps, args.delta)]), math.nan, eps


def cmd_guarantee(args):
    """single (eps, delta) query"""
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
    base = _merge(cfg, args, "base")
    profile, eps1, direct = _resolve(base, _merge(cfg, args, "family"), method, args)
    if args.delta is not None:
        from . import profiles
        eps = direct if direct is not None else profiles.epsilon_for_delta(profile, args.delta)
        delta = args.delta
    else:
        eps = args.eps
        delta = profile(args.eps)
    eps1 = None if math.isnan(eps1) else eps1
    if args.format == "json":
        line = json.dumps({"eps": eps, "delta": delta, "method": method, "eps1": eps1})
    else:
        line = (f"eps={_fmt(eps)} delta={_fmt(delta)} method={method} "
                f"eps1={'nan' if eps1 is None else _fmt(eps1)}")
    sys.stdout.write(line + "\n")
    return 0


def cmd_adjust(args):
    """max step count per noise candidate"""
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
        v = cfg.get(key) if getattr(args, key) is None else getattr(args, key)
        if v is not None:
            given[key] = _finite(v, key)
    grid = _grid_spec(args, True)
    from . import presets
    header, rows = presets.fig8_adjust_table(**given, grid=grid)
    _emit_csv(header, rows, out)
    return 0


def cmd_oracle(args):
    """run the oracle validation table"""
    from . import oracles, selection
    # each selection bound is the one `guarantee` builds for that base and count
    checks = oracles.oracle_checks(lambda spec, dist: selection.bound_for_count(
        _build_base(*_base_params(spec)), dist).profile)
    failed = sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        sys.stdout.write(f"{'ok  ' if ok else 'FAIL'}  {name:<42} {detail}\n")
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} oracle checks passed\n")
    return 1 if failed else 0


# Every option: (flag, the commands that take it, those of them that also
# read it as a top-level config key, argparse extras).  --base and
# --family are each followed by the flags of their section's fields.
_FLAGS = (
    ("preset", "compare", "", {"help": ", ".join(_PRESETS)}),
    ("--config", "profile guarantee adjust", "",
     {"help": "JSON scenario file; flags override it"}),
    ("--base", "profile guarantee", "profile guarantee", {"choices": list(_BASES)}),
    ("--family", "guarantee", "guarantee", {"choices": [f for f in _FAMILIES if f]}),
    ("--method", "guarantee", "guarantee",
     {"choices": list(dict.fromkeys(m for _, ms in _FAMILIES.values() for m in ms))}),
    ("--eps-grid", "profile", "", {"help": "lo:hi:step, default 0:5:0.1"}),
    ("--q", "adjust", "adjust", {}),
    ("--eps-q", "adjust", "adjust", {}),
    ("--delta", "guarantee adjust", "adjust", {}),
    ("--m", "adjust", "adjust", {}),
    ("--eta", "adjust", "adjust", {}),
    ("--sigmas", "adjust", "adjust", {"help": "comma-separated noise candidates"}),
    ("--eps", "guarantee", "", {}),
    ("--eps1", "guarantee", "", {"help": "fix eps1 instead of optimizing it"}),
    ("--format", "guarantee", "", {"choices": ["text", "json"], "default": "text"}),
    ("--grid-spacing", "profile compare guarantee adjust", "", {}),
    ("--out", "profile compare adjust", "profile adjust", {}),
)
# the subcommands; the --help line of each is its docstring
_COMMANDS = (cmd_profile, cmd_compare, cmd_guarantee, cmd_adjust, cmd_oracle)
# the exit code of each error a command raises, from the first row that
# matches: EmptyCurveError is a ValueError, so ValueError comes last
_EXIT_CODES = (
    ((ConfigError, InfeasibleMeanError), 2),
    ((UnreachableTargetError, NoAdmissibleEps1Error, EmptyCurveError), 3),
    ((GridTooCoarseError, MemoryBudgetError), 4),
    ((ValueError,), 2),
)


def build_parser():
    parser = argparse.ArgumentParser(prog="privsel", description="Privacy accounting for "
                                     "noisy-argmax and best-of-many selection mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for fn in _COMMANDS:
        command = fn.__name__.removeprefix("cmd_")
        p = sub.add_parser(command, help=fn.__doc__)
        p.set_defaults(fn=fn)
        for flag, takes, _, extras in _FLAGS:
            if command in takes.split():
                p.add_argument(flag, **extras)
                for _, field_flag, field_extras in _field_flags(_dest(flag)):
                    p.add_argument(field_flag, **field_extras)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(c for errors, _ in _EXIT_CODES for c in errors) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for errors, code in _EXIT_CODES if isinstance(e, errors))


if __name__ == "__main__":
    sys.exit(main())
