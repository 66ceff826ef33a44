"""The comparison presets and `adjust`, byte for byte against committed CSVs.

`compare fig1`..`fig8` and two `adjust` runs go in-process and write
their tables under a temporary directory; each file must equal its copy
in tests/data, so a refactor of the bounds behind them cannot move a
printed digit.  A cell backed by `scenario.resolve` is also one
`privsel guarantee` call away, and that call prints the committed cell.
"""

import contextlib
import csv
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


GAUSS = ["--base", "gaussian", "--sigma", "4"]
FIG6 = ["--base", "subsampled_gaussian", "--q", "0.004266666666666667", "--sigma", "1.1",
        "--steps", "14063"]
FIG7 = ["--base", "subsampled_gaussian", "--q", "0.32768", "--sigma", "21.1",
        "--steps", "250"]
# cell -> (guarantee flags, the CSV, its row's first value, its column)
CELLS = {
    "fig1-hs": (GAUSS + ["--family", "rnm", "--m", "10", "--delta", "1e-6"],
                "fig1", "10", "eps_hs"),
    "fig1-closed": (GAUSS + ["--family", "rnm", "--m", "10", "--method", "closed",
                             "--delta", "1e-6"], "fig1", "10", "eps_closed"),
    **{f"fig3-{method}": (GAUSS + ["--family", "negbin", "--m", "10", "--method", method,
                                   "--delta", "1e-6"], "fig3", "10", column)
       for method, column in (("hs", "eps_hs"), ("rdp", "eps_rdp"), ("closed", "eps_gdp"))},
    "fig4-binomial": (GAUSS + ["--family", "binomial", "--n", "50", "--m", "10",
                               "--eps", "2"], "fig4", "2", "delta_n50"),
    "fig4-poisson": (GAUSS + ["--family", "poisson", "--m", "10", "--eps", "2"],
                     "fig4", "2", "delta_poisson"),
    "fig6-rdp-poisson": (FIG6 + ["--family", "poisson", "--m", "1000", "--method", "rdp",
                                 "--delta", "1e-6"], "fig6", "1000", "eps_rdp_poisson"),
    **{f"fig7-{method}": (FIG7 + ["--family", "negbin", "--gamma", "0.1", "--method", method,
                                  "--delta", "1e-6"], "fig7", "10", f"eps_{method}_negbin")
       for method in ("hs", "rdp")},
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_preset_cell_is_one_guarantee_call(cell, monkeypatch):
    monkeypatch.delenv("PRIVSEL_PLD_CACHE", raising=False)
    flags, table, first, column = CELLS[cell]
    with open(DATA / f"{table}.csv", newline="") as f:
        row = next(r for r in csv.DictReader(f) if next(iter(r.values())) == first)
    rc, out = _run_quietly(["guarantee", *flags])
    printed = dict(field.split("=") for field in out.split())
    assert rc == 0
    assert printed["delta" if "--eps" in flags else "eps"] == row[column]
