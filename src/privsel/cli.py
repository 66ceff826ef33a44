"""Command-line interface: profile tables, preset comparisons,
single guarantee queries, the horizon-adjustment procedure, and the
oracle validation suite.

The module reads arguments and config files and prints, driven by
tables: `_FLAGS` holds every option and the top-level config keys each
command reads (the field flags are derived from `scenario`'s kinds),
`_PRESETS` the `compare` tables, `_EXIT_CODES` the exit code of each
error.  The scenario vocabulary and resolver live in `scenario`, the
oracle rows in `oracles.oracle_checks`.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration
error, 3 unreachable target, 4 numerical guard tripped.

At import this module loads numpy and the stdlib only. Each command
imports what it computes with after its input is read, so a missing,
unread or malformed flag, field or target exits before any scipy import.
A `profile` or `guarantee` call that builds no loss grid never loads `pld`,
and one on a pure or points base, or under rdp on a Gaussian base, loads
numpy alone, range checks included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import scenario
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
    command does not read is refused, so no input is silently dropped.
    An empty path is a path, and is refused as unreadable."""
    if args.config is None:
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
    scenario.refuse_unread(cfg, keys, f"{args.command} config", "keys")
    return cfg


def _field_flags(section):
    """(field, flag, argparse extras) of each field of the "base" or
    "family" kinds, in table order, none for any other name.  A field's
    flag is --<field>, but pure's eps is --eps-base; points has no flag."""
    kinds = {"base": scenario.BASES.values(),
             "family": [fields for fields, _ in scenario.FAMILIES.values()]}.get(section, ())
    for field in dict.fromkeys(f for fields in kinds for f in fields if f != "points"):
        yield (field, "--eps-base" if field == "eps" else f"--{field}",
               {"action": "store_true"} if field == "monotone" else {})


def _dest(flag):
    """The args attribute, and the config key, of a flag."""
    return flag.lstrip("-").replace("-", "_")


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


def _out_path(args, cfg):
    # an absent key is "", stdout; a config null is given, and refused
    out = cfg.get("out", "") if args.out is None else args.out
    if not isinstance(out, str):
        raise ConfigError(f"config 'out' must be a path string, got {out!r}")
    return out and _writable(out)


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
    eps_grid = _eps_grid(args)
    profile = scenario.resolve(_merge(cfg, args, "base"), {}, "hs",
                               grid_spacing=args.grid_spacing)[0]
    _emit_csv(("eps", "delta"), [(e, profile(e)) for e in eps_grid], out)
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
    out = _out_path(args, {})
    grid = scenario.grid_spec(args.grid_spacing, builds_grid)
    # the count CDF table: a second file beside --out, else after a blank line
    kout = None
    if out and suffix:
        stem, ext = os.path.splitext(out)
        kout = _writable(stem + suffix + ext)
    from . import presets
    build = getattr(presets, name)
    tables = build(grid=grid) if builds_grid else build()
    table, *extra = tables if suffix else [tables]
    _emit_csv(*table, out)
    for table in extra:
        sys.stdout.write("" if kout else "\n")
        _emit_csv(*table, kout)
    return 0


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
            setattr(args, key, scenario.finite(getattr(args, key), key))
    method = args.method or cfg.get("method", "hs")
    eps, delta, eps1 = scenario.guarantee(
        _merge(cfg, args, "base"), _merge(cfg, args, "family"), method, delta=args.delta,
        eps=args.eps, eps1=args.eps1, grid_spacing=args.grid_spacing)
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
    # the keys given, a config null among them, reach the table; it has the defaults
    given = {}
    if args.sigmas is not None or "sigmas" in cfg:
        raw = cfg["sigmas"] if args.sigmas is None else args.sigmas.split(",")
        if not isinstance(raw, list):
            raise ConfigError(f"config 'sigmas' must be a list, got {raw!r}")
        given["sigmas"] = tuple(scenario.finite(s, "sigmas") for s in raw)
        if not given["sigmas"]:
            raise ConfigError("candidate list is empty")
    for key in ("q", "eps_q", "delta", "m", "eta"):
        if getattr(args, key) is not None or key in cfg:
            v = cfg[key] if getattr(args, key) is None else getattr(args, key)
            given[key] = scenario.finite(v, key)
    grid = scenario.grid_spec(args.grid_spacing, True)
    from . import presets
    header, rows = presets.fig8_adjust_table(**given, grid=grid)
    _emit_csv(header, rows, out)
    return 0


def cmd_oracle(args):
    """run the oracle validation table"""
    from . import oracles
    checks = oracles.oracle_checks()
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
    ("--base", "profile guarantee", "profile guarantee", {"choices": list(scenario.BASES)}),
    ("--family", "guarantee", "guarantee", {"choices": [f for f in scenario.FAMILIES if f]}),
    ("--method", "guarantee", "guarantee",
     {"choices": list(dict.fromkeys(m for _, ms in scenario.FAMILIES.values() for m in ms))}),
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


# built once a process: argparse leaves a parser as it was after each parse
@functools.cache
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
