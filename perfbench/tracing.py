"""Per-layer tracing of privsel from outside the package.

`Tracer.install()` replaces the public functions of each privsel module
with timing wrappers, in every privsel module that holds them, so names
bound by `from .x import y` are intercepted as well as the defining
module's attribute. `Tracer.uninstall()` puts every original back.

Each timed call pushes a frame on one stack; a call's self time is its
duration minus the time of the timed calls made inside it. Calls into
ordinary public functions are also kept as spans (name, start, end,
parent) in memory. Evaluators that run millions of times (profile, PLD
delta and Renyi-divergence evaluations, count-distribution methods) only
add to counters and aggregate times, and Renyi-curve evaluations only to
a counter, so a traced run stays small.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import time

MODULES = ("profiles", "countdist", "pld", "rnm", "selection", "oracles",
           "presets", "cli")

# How a wrapped call is recorded: a span (also timed), aggregate time only,
# or a bare call count whose time stays with the caller. Evaluators run
# millions of times, so they get no spans; Renyi-curve evaluations only a
# count, because timing them would cost more than they do.
SPAN, TIMED, COUNT = "span", "timed", "count"

_DIST_METHODS = tuple(f"{cls}.{meth}"
                      for cls in ("TruncNegBinomial", "Binomial", "Poisson")
                      for meth in ("pmf", "mean", "cdf", "pgf_deriv", "support_upper"))

# (module, layer key, how, attributes). An attribute "Class.method"
# patches the method on the class.
TARGETS = (
    ("profiles", "profiles.eps_for_delta", SPAN, ("epsilon_for_delta",)),
    ("profiles", "profiles.rdp_to_dp", SPAN, ("rdp_to_dp",)),
    ("profiles", "profiles.profile_eval", TIMED, ("PrivacyProfile.__call__",)),
    ("profiles", "profiles.rdp_curve_eval", COUNT, ("RdpCurve.__call__",)),
    ("profiles", "profiles.build", SPAN,
     ("gaussian_profile", "gaussian_rdp_curve", "profile_from_points",
      "rdp_profile", "default_orders", "gaussian_sigma_for_eps_delta")),
    ("countdist", "countdist", TIMED, _DIST_METHODS + ("from_expected",)),
    ("pld", "pld.build", SPAN, ("subsampled_gaussian_pld",)),
    ("pld", "pld.compose", SPAN, ("compose",)),
    ("pld", "pld.delta", TIMED, ("DiscretePLD.delta",)),
    ("pld", "pld.renyi", TIMED, ("renyi_subsampled_gaussian",)),
    ("pld", "pld.profile", SPAN, ("subsampled_gaussian_profile",)),
    ("rnm", "rnm", SPAN, ("rnm_profile", "rnm_composition_profile",
                          "rnm_gaussian_eps", "RnmSpec.noise_profile")),
    ("selection", "selection.optimize_eps1", SPAN, ("optimize_eps1",)),
    ("selection", "selection.bounds", SPAN,
     ("select_negbin_profile", "select_binomial_profile", "select_poisson_profile",
      "bound_for_count", "select_negbin_pure", "select_negbin_pointwise",
      "select_gdp_eps", "adjust_guarantee", "gptr_combine")),
    ("selection", "selection.rdp", SPAN, ("rdp_select_negbin", "rdp_select_poisson")),
    ("oracles", "oracles", SPAN,
     ("gaussian_pair", "subsampled_gaussian_pair", "pair_normalization",
      "hs_divergence_quadrature", "argmax_probabilities", "rnm_exact_divergence",
      "selection_exact_divergence", "selection_mean_quadrature",
      "mc_selection_sample", "instance_pair")),
    *(("presets", f"presets.{name}", SPAN, (name,))
      for name in ("fig1_table", "fig2_table", "fig3_table", "fig4_tables",
                   "fig6_table", "fig7_table", "fig7_max_counts",
                   "fig8_adjust_table")),
    ("presets", "presets.helpers", SPAN,
     ("subsampled_rdp_curve", "rdp_curve_eps", "rdp_poisson_eps")),
    ("cli", "cli.main", SPAN, ("main",)),
)

# Profile evaluations are also counted per calling layer, so the bisection
# probes of eps_for_delta and the candidate scan of optimize_eps1 show.
PROFILE_EVAL_KEY = "profiles.profile_eval"


def convolutions(steps):
    """FFT convolutions `pld.compose` makes for `steps` by repeated squaring."""
    return steps.bit_length() + bin(steps).count("1") - 2


class Tracer:
    """Wraps privsel's public functions; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.stats = {}          # key -> [calls, total_s, self_s]
        self.profile_evals_by_parent = {}
        self.counts = {"pld.compose.cells": 0, "pld.convolutions": 0,
                       "pld.build.cells": 0, "pld.cache.mem_hits": 0,
                       "pld.cache.disk_hits": 0, "pld.cache.misses": 0,
                       "pld.cache.bytes_written": 0}
        self.renyi_args = set()
        self.notes = []
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"privsel.{name}")
                for name in MODULES}
        holders = [sys.modules["privsel"], *mods.values()]
        for mod_name, key, how, attrs in TARGETS:
            for attr in attrs:
                self._install_one(mods[mod_name], attr, key, how, holders)
        self._install_cache_probe(mods["pld"])
        return self

    def _install_one(self, module, attr, key, how, holders):
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(module, cls_name, None) if cls_name else module
        original = getattr(owner, name, None)
        if original is None:
            self.notes.append(f"not traced: {module.__name__}.{attr} is missing")
            return
        if how == COUNT:
            wrapper = self._count(key, original)
        else:
            wrapper = self._wrap(key, original, how == SPAN, self._hook(key))
        if cls_name:
            self._patch(owner, name, wrapper)
            return
        for holder in holders:
            for held_name, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, held_name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers -------------------------------------------------------

    def _hook(self, key):
        """Per-call work counter for a layer, run on the call's result."""
        counts = self.counts
        if key == "pld.compose":
            def hook(args, kwargs, result):
                steps = kwargs.get("steps", args[1] if len(args) > 1 else 1)
                counts["pld.convolutions"] += convolutions(int(steps))
                counts["pld.compose.cells"] += len(result.mass)
            return hook
        if key == "pld.build":
            def hook(args, kwargs, result):
                counts["pld.build.cells"] += len(result.mass)
            return hook
        if key == "pld.renyi":
            seen = self.renyi_args

            def hook(args, kwargs, result):
                params = args[0] if args else kwargs["params"]
                alpha = args[1] if len(args) > 1 else kwargs["alpha"]
                seen.add((params.q, params.sigma, float(alpha)))
            return hook
        return None

    def _count(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _wrap(self, key, fn, span, hook):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        by_parent = self.profile_evals_by_parent if key == PROFILE_EVAL_KEY else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if by_parent is not None:
                pkey = parent[1] if parent else None
                by_parent[pkey] = by_parent.get(pkey, 0) + 1
            span_id = len(spans) if span else -1
            if span:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, key, span_id if span_id >= 0 else (parent[2] if parent else -1)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if span_id >= 0:
                    spans[span_id] = (key, fn.__qualname__, t0, t1,
                                      parent[2] if parent else -1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _install_cache_probe(self, pld):
        """Classify each composed-PLD lookup as memory hit, disk hit or miss.

        This reads private names of `privsel.pld`; when they are gone the
        cache counters stay 0 and a note says why.
        """
        needed = ("_composed_pld", "_COMPOSED", "_cache_path")
        if not all(hasattr(pld, n) for n in needed):
            self.notes.append("pld cache probe off: privsel.pld has no "
                              + "/".join(needed))
            return
        original = pld._composed_pld
        counts = self.counts

        def classify(q, sigma, steps, direction, grid):
            key = (q, sigma, steps, direction, grid.spacing, grid.tail_mass)
            path = pld._cache_path(key)
            if key in pld._COMPOSED:
                counts["pld.cache.mem_hits"] += 1
                return
            if path and os.path.exists(path):
                counts["pld.cache.disk_hits"] += 1
                return
            counts["pld.cache.misses"] += 1
            return path

        timed = self._wrap("pld.cache", original, True, None)

        @functools.wraps(original)
        def probe(q, sigma, steps, direction, grid):
            path = classify(q, sigma, steps, direction, grid)
            result = timed(q, sigma, steps, direction, grid)
            if path and os.path.exists(path):
                counts["pld.cache.bytes_written"] += os.path.getsize(path)
            return result

        self._patch(pld, "_composed_pld", probe)

    # -- results --------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics of everything traced since install()."""
        def stat(key):
            return self.stats.get(key, [0, 0.0, 0.0])

        def self_of(prefix):
            return sum(v[2] for k, v in self.stats.items()
                       if k == prefix or k.startswith(prefix + "."))

        evals = self.profile_evals_by_parent
        m = {
            "cli.main_s": stat("cli.main")[1],
            "cli.main.self_s": stat("cli.main")[2],
            "cli.main.calls": stat("cli.main")[0],
            "presets.fig6_table_s": stat("presets.fig6_table")[1],
            "presets.fig7_table_s": stat("presets.fig7_table")[1],
            "presets.fig8_adjust_table_s": stat("presets.fig8_adjust_table")[1],
            "presets.self_s": self_of("presets"),
            "pld.build.calls": stat("pld.build")[0],
            "pld.build.self_s": stat("pld.build")[2],
            "pld.compose.calls": stat("pld.compose")[0],
            "pld.compose.self_s": stat("pld.compose")[2],
            "pld.cache.self_s": stat("pld.cache")[2],
            "pld.profile.self_s": stat("pld.profile")[2],
            "pld.delta.calls": stat("pld.delta")[0],
            "pld.delta.self_s": stat("pld.delta")[2],
            "pld.renyi.calls": stat("pld.renyi")[0],
            "pld.renyi.quadratures": len(self.renyi_args),
            "pld.renyi.self_s": stat("pld.renyi")[2],
            "profiles.eps_for_delta.calls": stat("profiles.eps_for_delta")[0],
            "profiles.eps_for_delta.self_s": stat("profiles.eps_for_delta")[2],
            "profiles.eps_for_delta.profile_evals": evals.get("profiles.eps_for_delta", 0),
            "profiles.rdp_to_dp.calls": stat("profiles.rdp_to_dp")[0],
            "profiles.rdp_to_dp.self_s": stat("profiles.rdp_to_dp")[2],
            "profiles.rdp_curve_evals": stat("profiles.rdp_curve_eval")[0],
            "profiles.profile_evals": stat(PROFILE_EVAL_KEY)[0],
            "profiles.eval.self_s": (stat(PROFILE_EVAL_KEY)[2]
                                     + stat("profiles.rdp_curve_eval")[2]),
            "profiles.build.self_s": stat("profiles.build")[2],
            "selection.optimize_eps1.calls": stat("selection.optimize_eps1")[0],
            "selection.optimize_eps1.self_s": stat("selection.optimize_eps1")[2],
            "selection.optimize_eps1.profile_evals": evals.get("selection.optimize_eps1", 0),
            "selection.bounds.self_s": stat("selection.bounds")[2],
            "selection.rdp.self_s": stat("selection.rdp")[2],
            "countdist.calls": stat("countdist")[0],
            "countdist.self_s": stat("countdist")[2],
            "rnm.self_s": stat("rnm")[2],
            "oracles.self_s": stat("oracles")[2],
            "trace.spans": sum(1 for s in self.spans if s is not None),
        }
        m.update(self.counts)
        layers_self = sum(v[2] for v in self.stats.values())
        m["trace.wall_s"] = wall_s
        m["trace.accounted_ratio"] = layers_self / wall_s if wall_s > 0 else 0.0
        return m


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")
IMPORT_GROUPS = {"import.privsel_s": "privsel", "import.scipy_stats_s": "scipy.stats",
                 "import.scipy_signal_s": "scipy.signal"}


def parse_importtime(stderr):
    """Cumulative import seconds per group from `python -X importtime`.

    A group (privsel, scipy.stats, scipy.signal) sums the cumulative time
    of its outermost entries: a package imported lazily, as scipy.stats
    is, has no line of its own, only lines for its submodules.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6))

    def group(name):
        for key, prefix in IMPORT_GROUPS.items():
            if name == prefix or name.startswith(prefix + "."):
                return key
        return None

    out = dict.fromkeys(IMPORT_GROUPS, 0.0)
    # children are printed before their parent, so walk backwards with a
    # stack of open ancestors
    stack = []
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        key = group(name)
        if key and not any(group(a) == key for _, a in stack):
            out[key] += cumulative
        stack.append((indent, name))
    return out
