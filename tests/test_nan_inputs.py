"""Non-finite inputs are errors, never a more private-looking answer.

min/max clipping maps NaN to delta = 0 and `sigma <= 0` style guards let
NaN through, so without explicit checks a NaN noise scale certified
perfect privacy.  Every base kind is checked through the CLI (exit 2,
run in-process), every constructor directly (ValueError), and every
profile node at a NaN eps (ValueError).
"""

import json
import math

import numpy as np
import pytest

from privsel import cli
from privsel.countdist import Poisson, TruncNegBinomial, from_expected
from privsel.pld import DiscretePLD, GridSpec, Pld, SubsampledGaussianParams
from privsel.profiles import (
    PointDP,
    Scaled,
    clip_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
)
from privsel.rnm import RnmSpec, rnm_composition_profile, rnm_gaussian_eps
from privsel.selection import (
    adjust_guarantee,
    rdp_select_negbin,
    select_gdp_eps,
    select_negbin_pointwise,
    select_negbin_pure,
    select_poisson_profile,
)

NEGBIN = ["--family", "negbin", "--eta", "1", "--m", "300", "--delta", "1e-6"]


def points_config(tmp_path, points):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"base": {"kind": "points", "points": points}}))
    return ["--config", str(path)]


@pytest.mark.parametrize("base", [
    ["--base", "gaussian", "--sigma", "nan"],
    ["--base", "gaussian", "--sigma", "nan", "--method", "rdp"],
    ["--base", "gaussian", "--sigma", "4", "--sensitivity", "nan"],
    ["--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "nan",
     "--steps", "4"],
    ["--base", "pure", "--eps-base", "nan"],
    "points",
], ids=["gaussian", "gaussian-rdp", "gaussian-sensitivity",
        "subsampled_gaussian", "pure", "points"])
def test_nan_base_is_config_error(base, tmp_path, capsys):
    if base == "points":
        base = points_config(tmp_path, [[0.5, 1e-3], [1.0, "nan"]])
    assert cli.main(["guarantee", *base, *NEGBIN]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "nan" in out.err


def test_nan_eps_query_is_config_error(capsys):
    argv = ["guarantee", "--base", "gaussian", "--sigma", "4", "--eps", "nan"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: eps must be finite, got nan\n"


@pytest.mark.parametrize("build", [
    lambda: gaussian_profile(math.nan),
    lambda: gaussian_profile(math.inf),
    lambda: gaussian_profile(1.0, math.nan),
    lambda: gaussian_rdp_curve(math.nan),
    lambda: gaussian_rdp_curve(-1.0),
    lambda: profile_from_points([(math.nan, 0.0)]),
    lambda: profile_from_points([(1.0, math.nan)]),
    lambda: SubsampledGaussianParams(0.1, math.nan),
    lambda: SubsampledGaussianParams(math.nan, 1.0),
    lambda: GridSpec(spacing=math.nan),
    lambda: RnmSpec(3, False, math.nan),
    lambda: DiscretePLD(1e-3, 0, np.array([0.5, math.nan]), 0.0),
    lambda: clip_delta(math.nan),
    # a NaN mean built a small count, and an infinite one Poisson(inf)
    lambda: from_expected("negbin", math.nan, shape=0.5),
    lambda: from_expected("negbin", math.inf, shape=0),
    lambda: from_expected("poisson", math.inf),
    lambda: PointDP(math.nan, 1e-6),
    lambda: adjust_guarantee(0.5, 1e-6, math.nan, 1.0, 0.1, 1e-6),
    # a square or reciprocal past the float range raised ZeroDivisionError
    # or OverflowError, or went on to an infinite shift or eps
    lambda: gaussian_rdp_curve(1e-200),
    lambda: gaussian_rdp_curve(1.0, 1e200),
    lambda: SubsampledGaussianParams(0.01, 1e200),
    lambda: SubsampledGaussianParams(0.01, 1e-160),
    lambda: TruncNegBinomial(1.0, 1e-309),
    lambda: adjust_guarantee(1.0, 0.0, 0.0, 1.0, 1e-309, 1e-6),
    lambda: select_gdp_eps(4.0, 1.0, 1e-309, 1e-6),
    # a partial copy of a count's rule let a parameter the count refuses
    # through, to a negative, NaN or smaller eps, a count of mean 0.8, a
    # division by gamma = 0 or an empty min() after a RuntimeWarning
    lambda: select_gdp_eps(4.0, -3.0, 0.1, 1e-6),
    lambda: select_gdp_eps(4.0, math.nan, 0.1, 1e-6),
    lambda: adjust_guarantee(0.5, 1e-6, 1.0, -2.0, 0.1, 1e-6),
    lambda: adjust_guarantee(1.0, 0.0, 0.0, 1.0, 2.0, 1e-6),
    lambda: adjust_guarantee(1.0, 0.0, 0.0, -2.0, 0.1, 1e-6),
    lambda: select_negbin_pure(1.0, math.nan),
    lambda: rdp_select_negbin(gaussian_rdp_curve(4.0), 1.0, 0.0),
    lambda: from_expected("binomial", 1.0, trials=2.5),
    lambda: Poisson(math.inf),
    lambda: select_poisson_profile(gaussian_profile(4.0), math.inf),
    # 2 sigma**2 past the float range raised ZeroDivisionError or OverflowError
    lambda: select_gdp_eps(1e-200, 1.0, 0.1, 1e-6),
    lambda: select_gdp_eps(1e200, 1.0, 0.1, 1e-6),
    lambda: rnm_gaussian_eps(1e-200, 10, 1e-6),
    lambda: rnm_gaussian_eps(1e200, 10, 1e-6),
    # a closed form whose eps overflowed returned inf, which the points
    # list refused with a message that named no input
    lambda: rnm_gaussian_eps(4.0, 10**305, 1e-6),
    lambda: select_negbin_pure(1e300, 1e10),
    lambda: select_gdp_eps(1e-150, 1e10, 0.5, 1e-6),
    lambda: select_negbin_pointwise(PointDP(1e300, 1e-6), 1e10, 0.5),
])
def test_constructors_reject_non_finite(build):
    with pytest.raises(ValueError):
        build()


_PLD = DiscretePLD(1.0, 498, np.array([0.25, 0.5, 0.25]), 0.0)


@pytest.mark.parametrize("profile", [
    gaussian_profile(4.0),
    profile_from_points([(0.5, 1e-3), (3.0, 1e-9)]),
    profile_from_points([(0.5, 1e-3), (800.0, 0.0)]),
    Scaled(gaussian_profile(4.0), 30.0, 0.7),
    Scaled(profile_from_points([(0.5, 1e-3)]), 30.0, 0.7, positive_eps_only=True),
    rnm_composition_profile(gaussian_profile(4.0, 4.0), 10, 4),
    rdp_profile(gaussian_rdp_curve(4.0)),
    Pld(_PLD, _PLD),
], ids=["gaussian", "points", "points-past-exp-range", "scaled", "scaled-positive",
        "rnm-composition", "renyi", "pld"])
def test_nan_eps_is_refused_by_every_node(profile):
    with pytest.raises(ValueError, match="NaN"):
        profile(math.nan)


def test_clip_delta_keeps_values_in_range():
    assert clip_delta(-1e-18) == 0.0
    assert clip_delta(1.5) == 1.0
    assert clip_delta(0.25) == 0.25
