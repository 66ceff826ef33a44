"""Privacy accounting for noisy-argmax and best-of-many selection.

Privacy profiles map eps to the tightest delta; bounds for releasing
the argmax of noised queries and for releasing the best of a random
number of private runs are built on top of them, with Renyi baselines,
a discretized loss-distribution accountant for the subsampled Gaussian,
and quadrature oracles that certify the bounds on small instances.

`import privsel` loads numpy only. Each public name below, and each
submodule named in `_EXPORTS`, is imported on first access.
`profiles`, `countdist`, `selection` and `scenario` load numpy alone, so
a query on a pure or points base, or a Renyi query on a Gaussian base,
never loads scipy.  The Gaussian leaf `gaussian` (and so `rnm` and
`presets`, which import it) reads its special functions from `_special`,
which loads scipy's compiled ufunc extension without the `scipy.special`
package; `pld` reads them only to build a grid or to sum a Renyi moment,
so a warm PLD cache hit and a grid refused for its cell budget run on
numpy alone.  `countdist` and `oracles` read the same ufuncs; the
package loads only with the binomial cdf (`betainc`), which the fig4
table reads.  No submodule loads `scipy.fft`, since `pld`
transforms with `numpy.fft`.  Names are not cached here: every access reads the
submodule's current attribute.
"""

import importlib

# every submodule needs numpy, and perfbench's set-up reads its version
# straight after `import privsel`
import numpy  # noqa: F401

_EXPORTS = {
    "countdist": ("Binomial", "Poisson", "TruncNegBinomial", "from_expected"),
    "errors": ("ConfigError", "EmptyCurveError", "GridTooCoarseError",
               "InfeasibleMeanError", "MemoryBudgetError",
               "NoAdmissibleEps1Error", "UnreachableTargetError"),
    "gaussian": ("gaussian_profile", "gaussian_sigma_for_eps_delta"),
    "pld": ("DiscretePLD", "GridSpec", "SubsampledGaussianParams", "compose",
            "renyi_subsampled_gaussian", "subsampled_gaussian_pld",
            "subsampled_gaussian_profile"),
    "profiles": ("PointDP", "PrivacyProfile", "RdpCurve", "default_orders",
                 "epsilon_for_delta", "gaussian_rdp_curve", "profile_from_points",
                 "rdp_profile", "rdp_to_dp"),
    "rnm": ("RnmSpec", "rnm_composition_profile", "rnm_gaussian_eps",
            "rnm_profile"),
    "selection": ("SelectionBoundResult", "adjust_guarantee", "gptr_combine",
                  "optimize_eps1", "rdp_poisson_curve", "rdp_select_negbin",
                  "rdp_select_poisson", "select_binomial_profile", "select_gdp_eps",
                  "select_negbin_pointwise", "select_negbin_profile",
                  "select_negbin_pure", "select_poisson_profile"),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "1.0.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
