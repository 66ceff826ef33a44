"""Privacy accounting for noisy-argmax and best-of-many selection.

Privacy profiles map eps to the tightest delta; bounds for releasing
the argmax of noised queries and for releasing the best of a random
number of private runs are built on top of them, with Renyi baselines,
a discretized loss-distribution accountant for the subsampled Gaussian,
and quadrature oracles that certify the bounds on small instances.
"""

from .countdist import (
    Binomial,
    Poisson,
    TruncNegBinomial,
    from_expected,
)
from .errors import (
    ConfigError,
    EmptyCurveError,
    GridTooCoarseError,
    InfeasibleMeanError,
    MemoryBudgetError,
    NoAdmissibleEps1Error,
    UnreachableTargetError,
)
from .pld import (
    DiscretePLD,
    GridSpec,
    SubsampledGaussianParams,
    compose,
    renyi_subsampled_gaussian,
    subsampled_gaussian_pld,
    subsampled_gaussian_profile,
)
from .profiles import (
    PointDP,
    PrivacyProfile,
    RdpCurve,
    default_orders,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    gaussian_sigma_for_eps_delta,
    profile_from_points,
    rdp_profile,
    rdp_to_dp,
)
from .rnm import RnmSpec, rnm_composition_profile, rnm_gaussian_eps, rnm_profile
from .selection import (
    SelectionBoundResult,
    adjust_guarantee,
    gptr_combine,
    optimize_eps1,
    rdp_select_negbin,
    rdp_select_poisson,
    select_binomial_profile,
    select_gdp_eps,
    select_negbin_pointwise,
    select_negbin_profile,
    select_negbin_pure,
    select_poisson_profile,
)

__all__ = [
    "Binomial",
    "ConfigError",
    "DiscretePLD",
    "EmptyCurveError",
    "GridSpec",
    "GridTooCoarseError",
    "InfeasibleMeanError",
    "MemoryBudgetError",
    "NoAdmissibleEps1Error",
    "PointDP",
    "Poisson",
    "PrivacyProfile",
    "RdpCurve",
    "RnmSpec",
    "SelectionBoundResult",
    "SubsampledGaussianParams",
    "TruncNegBinomial",
    "UnreachableTargetError",
    "adjust_guarantee",
    "compose",
    "default_orders",
    "epsilon_for_delta",
    "from_expected",
    "gaussian_profile",
    "gaussian_rdp_curve",
    "gaussian_sigma_for_eps_delta",
    "gptr_combine",
    "optimize_eps1",
    "profile_from_points",
    "rdp_profile",
    "rdp_select_negbin",
    "rdp_select_poisson",
    "rdp_to_dp",
    "renyi_subsampled_gaussian",
    "rnm_composition_profile",
    "rnm_gaussian_eps",
    "rnm_profile",
    "select_binomial_profile",
    "select_gdp_eps",
    "select_negbin_pointwise",
    "select_negbin_profile",
    "select_negbin_pure",
    "select_poisson_profile",
    "subsampled_gaussian_pld",
    "subsampled_gaussian_profile",
]

__version__ = "1.0.0"
