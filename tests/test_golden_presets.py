"""The fast comparison presets, byte for byte against committed CSVs.

`compare fig1`..`fig4` run in-process and write their tables under a
temporary directory; each file must equal its copy in tests/data, so a
refactor of the bounds behind them cannot move a printed digit.
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
}


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_preset_matches_golden_csv(preset, tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["compare", preset, "--out", str(tmp_path / f"{preset}.csv")])
    assert (rc, out.getvalue()) == (0, "")
    for name in GOLDEN[preset]:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
