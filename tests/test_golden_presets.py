"""The comparison presets and `adjust`, byte for byte against committed CSVs.

`compare fig1`..`fig8` and two `adjust` runs go in-process and write
their tables under a temporary directory; each file must equal its copy
in tests/data, so a refactor of the bounds behind them cannot move a
printed digit.
"""

import contextlib
import io
from pathlib import Path

import pytest

from privsel import cli

DATA = Path(__file__).resolve().parent / "data"

# preset -> the files `compare <preset> --out <preset>.csv` writes
GOLDEN = {
    "fig1": ("fig1.csv",),
    "fig2": ("fig2.csv",),
    "fig3": ("fig3.csv",),
    "fig4": ("fig4.csv", "fig4_kcdf.csv"),
    "fig6": ("fig6.csv",),
    "fig7": ("fig7.csv",),
    "fig8": ("fig8.csv",),
}

# `adjust` arguments -> the file its --out must equal; the explicit default
# candidates print the fig8 table
ADJUST_GOLDEN = {
    ("--sigmas", "2,3,4"): "fig8.csv",
    ("--sigmas", "2,3,4", "--eta", "0.5", "--m", "20"): "adjust_eta0.5_m20.csv",
}


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_preset_matches_golden_csv(preset, tmp_path):
    argv = ["compare", preset, "--out", str(tmp_path / f"{preset}.csv")]
    assert _run_quietly(argv) == (0, "")
    for name in GOLDEN[preset]:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("args", list(ADJUST_GOLDEN), ids=" ".join)
def test_adjust_matches_golden_csv(args, tmp_path):
    out = tmp_path / "adjust.csv"
    assert _run_quietly(["adjust", *args, "--out", str(out)]) == (0, "")
    assert out.read_bytes() == (DATA / ADJUST_GOLDEN[args]).read_bytes()
