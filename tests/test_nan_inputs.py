"""Non-finite inputs are errors, never a more private-looking answer.

min/max clipping maps NaN to delta = 0 and `sigma <= 0` style guards let
NaN through, so without explicit checks a NaN noise scale certified
perfect privacy.  Every base kind is checked through the CLI (exit 2,
run in-process) and every constructor directly (ValueError).
"""

import json
import math

import numpy as np
import pytest

from privsel import cli
from privsel.pld import DiscretePLD, GridSpec, SubsampledGaussianParams
from privsel.profiles import (
    clip_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
)
from privsel.rnm import RnmSpec

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
])
def test_constructors_reject_non_finite(build):
    with pytest.raises(ValueError):
        build()


def test_clip_delta_keeps_values_in_range():
    assert clip_delta(-1e-18) == 0.0
    assert clip_delta(1.5) == 1.0
    assert clip_delta(0.25) == 0.25
