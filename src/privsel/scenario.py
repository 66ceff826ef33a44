"""The scenario vocabulary `guarantee`, `profile` and `oracle` read: base
and family specs (`{"kind": "gaussian", "sigma": 4}`), the methods each
family accepts, the count of a family, the resolver from a scenario to
its profile, and the answer `guarantee` prints.

It loads the stdlib at import and checks every field before the first
computing import, calling computing modules as module attributes."""

from __future__ import annotations

import math

from .errors import ConfigError

# the fields each kind reads; any other field is refused, so no input is
# silently dropped.  A family also lists the methods it accepts, and the
# family None is a query on the bare base.
BASES = {
    "gaussian": ("sigma", "sensitivity"),
    "subsampled_gaussian": ("q", "sigma", "steps", "sensitivity"),
    "pure": ("eps",),
    "points": ("points",),
}
FAMILIES = {
    None: ((), ("hs", "rdp")),
    "negbin": (("eta", "gamma", "m"), ("hs", "rdp", "closed")),
    "binomial": (("n", "p", "m"), ("hs",)),
    "poisson": (("m",), ("hs", "rdp")),
    "rnm": (("m", "rounds", "monotone"), ("hs", "closed")),
}


def refuse_unread(given, read, what, noun="fields"):
    if unread := sorted(set(given) - set(read)):
        raise ConfigError(f"{what} does not read {', '.join(unread)}; "
                          f"its {noun} are {', '.join(read)}")


def finite(value, name):
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
    # + 0.0 turns -0.0 into 0.0, so that no answer prints a negative zero
    return x + 0.0


def _real(spec, key, default=None):
    """spec[key] as a finite float, or default when the key is absent
    (an error when there is no default)."""
    if key not in spec:
        if default is None:
            raise ConfigError(f"{spec.get('kind')} needs {key}")
        return default
    return finite(spec[key], key)


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


def grid_spec(spacing, builds_grid):
    """The loss grid of a --grid-spacing value, None without one.  A query
    that builds no loss grid refuses the value rather than dropping it."""
    if spacing is None:
        return None
    spacing = finite(spacing, "grid_spacing")
    if not builds_grid:
        raise ConfigError("--grid-spacing is read only where a loss grid is built: a "
                          "subsampled_gaussian base under hs, compare fig6-fig8 and adjust")
    from . import pld
    return pld.GridSpec(spacing=spacing)


def _noise_ratio(sigma, sens):
    """sigma / sensitivity, refused where 2 (sigma / sensitivity)**2 or its
    reciprocal leaves the float range: pld and the closed forms divide by
    it, and refuse it as this does."""
    ratio = sigma / sens
    twice_var = 2 * ratio * ratio
    if not 0 < twice_var < math.inf or 1 / twice_var == math.inf:
        raise ConfigError(f"2 (sigma / sensitivity)**2 is out of float range, "
                          f"got sigma={sigma}, sensitivity={sens}")
    return ratio


def base_params(base):
    """(kind, params) of a merged base spec, every field checked once:
    (sigma, sensitivity) for gaussian, (q, sigma / sensitivity, steps) for
    subsampled_gaussian, eps for pure, the (eps, delta) list for points."""
    if "kind" not in base:
        raise ConfigError("no base mechanism given (config 'base' or --base)")
    kind = base["kind"]
    if not (isinstance(kind, str) and kind in BASES):
        raise ConfigError(f"unknown base kind {kind!r}")
    refuse_unread(base.keys() - {"kind"}, BASES[kind], f"{kind} base")
    if kind in ("gaussian", "subsampled_gaussian"):
        sigma, sens = _real(base, "sigma"), _real(base, "sensitivity", 1.0)
        if not (sigma > 0 and sens > 0):
            raise ConfigError(f"{kind} base needs sigma > 0 and sensitivity > 0")
        if kind == "gaussian":
            return kind, (sigma, sens)
        q, steps = _real(base, "q"), _count(base, "steps", 1)
        return kind, (q, _noise_ratio(sigma, sens), steps)
    if kind == "pure":
        eps = _real(base, "eps")
        if not eps >= 0:
            raise ConfigError(f"pure base needs eps >= 0, got {eps}")
        return kind, eps
    points = base.get("points")
    if not (isinstance(points, (list, tuple))
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in points)):
        raise ConfigError(f"bad points list: points must be a list of [eps, delta] pairs, "
                          f"got {points!r}")
    try:
        return kind, [(finite(e, "eps"), finite(d, "delta")) for e, d in points]
    except ConfigError as e:
        raise ConfigError(f"bad points list: {e}") from e


def build_base(kind, params, method="hs", grid=None):
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
        # the one leaf that evaluates a special function
        from . import gaussian
        return gaussian.gaussian_profile(*params)
    if kind == "pure":
        return profiles.profile_from_points([(params, 0.0)])
    return profiles.profile_from_points(params)


def count(fam):
    """The count distribution of a negbin, binomial or poisson family spec."""
    from . import countdist
    family = fam["kind"]
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


def _resolve_rnm(kind, params, fam, method, delta, grid_spacing):
    if kind != "gaussian":
        raise ConfigError("rnm needs a gaussian base")
    sigma, sens = params
    monotone = fam.get("monotone", False)
    if not isinstance(monotone, bool):
        raise ConfigError(f"monotone must be true or false, got {monotone!r}")
    candidates = _count(fam, "m")
    rounds = _count(fam, "rounds", 1)
    if candidates < 1:
        raise ConfigError(f"m must be >= 1, got {candidates}")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if method == "closed":
        if monotone or rounds != 1:
            raise ConfigError("closed-form rnm needs one non-monotone round")
        if delta is None:
            raise ConfigError("closed-form rnm guarantee needs --delta")
    grid_spec(grid_spacing, False)
    from . import profiles, rnm
    spec = rnm.RnmSpec(candidates, monotone, sigma)
    if method == "closed":
        eps = rnm.rnm_gaussian_eps(_noise_ratio(sigma, sens), spec.candidates, delta)
        return profiles.profile_from_points([(eps, delta)]), None, eps
    comp = spec.noise_profile(sens * math.sqrt(rounds))
    return rnm.rnm_composition_profile(comp, spec.candidates, rounds), None, None


def resolve(base, fam, method, *, eps1=None, delta=None, grid_spacing=None,
            build=build_base):
    """(profile, eps1, direct) of a guarantee query, building only what
    the method reads, by build(kind, params, method, grid).  eps1 is the
    hs bound's inner eps1 (given, it is fixed rather than optimized), None
    on other routes; direct is a closed-form eps, reported as-is instead
    of read back off the profile."""
    kind, params = base_params(base)
    family = fam.get("kind")
    if fam and not (isinstance(family, str) and family in FAMILIES):
        raise ConfigError(f"unknown family kind {family!r}")
    fields, methods = FAMILIES[family]
    if not (isinstance(method, str) and method in methods):
        raise ConfigError(f"method {method!r} is not available for {family or 'a bare base'}"
                          f", choose from {', '.join(methods)}")
    refuse_unread(fam.keys() - {"kind"}, fields, f"{family} family")
    if eps1 is not None and (family in (None, "rnm") or method != "hs"):
        raise ConfigError("--eps1 is read only by the hs bound of a negbin, "
                          "binomial or poisson family")
    if family == "rnm":
        return _resolve_rnm(kind, params, fam, method, delta, grid_spacing)
    dist = count(fam) if family else None
    grid = grid_spec(grid_spacing, kind == "subsampled_gaussian" and method == "hs")
    from . import profiles, selection
    if family is None:
        built = build(kind, params, method, grid)
        return (profiles.rdp_profile(built) if method == "rdp" else built), None, None
    if method == "closed" and kind == "pure":
        # no formula reads the target here, so it is checked as inverting
        # a profile checks it
        if delta is not None and not 0 < delta <= 1:
            raise ConfigError(f"delta target must be in (0,1], got {delta}")
        # the pure-base form depends on the count only through its shape
        eps = selection.select_negbin_pure(params, dist.shape)
        return profiles.profile_from_points([(eps, 0.0)]), None, eps
    if method == "hs":
        res = selection.bound_for_count(build(kind, params, method, grid), dist, eps1)
        return res.profile, res.eps1, None
    if method == "rdp":
        base_rdp = build(kind, params, method, grid)
        curve = (selection.rdp_poisson_curve(base_rdp, dist.rate) if family == "poisson"
                 else selection.rdp_select_negbin(base_rdp, dist.shape, dist.success))
        return profiles.rdp_profile(curve), None, None
    if kind != "gaussian":
        raise ConfigError("closed-form negbin needs a pure or gaussian base")
    if delta is None:
        raise ConfigError("closed-form negbin guarantee needs --delta")
    eps = selection.select_gdp_eps(_noise_ratio(*params), dist.shape, dist.success, delta)
    return profiles.profile_from_points([(eps, delta)]), None, eps


def guarantee(base, fam, method, *, delta=None, eps=None, eps1=None, grid_spacing=None,
              build=build_base):
    """(eps, delta, eps1) of a guarantee query at its one target, delta or
    eps: at delta, resolve's closed-form eps where it returns one, else
    its profile inverted there; at eps, the profile's delta."""
    profile, eps1, direct = resolve(base, fam, method, eps1=eps1, delta=delta,
                                    grid_spacing=grid_spacing, build=build)
    if delta is None:
        return eps, profile(eps), eps1
    if direct is None:
        from . import profiles
        direct = profiles.epsilon_for_delta(profile, delta)
    return direct, delta, eps1
