"""Guarantee queries per (base, family, method) cell, run in-process.

Each accepted cell pins its exact stdout and exit code, so a change to
how the CLI resolves a scenario cannot move a printed number unnoticed.
Inputs that would otherwise be dropped are checked to be honoured (the
sensitivity) or refused with exit 2 and nothing on stdout.
"""

import contextlib
import io
import json

import pytest

from privsel import cli

GAUSS = ["guarantee", "--base", "gaussian", "--sigma", "4"]
NEGBIN = ["--family", "negbin", "--eta", "1", "--m", "300"]
POINTS = [[0.5, 1e-3], [1.5, 1e-5], [3.0, 1e-9]]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def points_config(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"base": {"kind": "points", "points": POINTS}}))
    return ["guarantee", "--config", str(path)]


LOCKED = {
    "negbin-rdp": (
        GAUSS + NEGBIN + ["--method", "rdp", "--delta", "1e-6"],
        "eps=3.04525511436 delta=1e-06 method=rdp eps1=nan\n"),
    "negbin-closed-gaussian": (
        GAUSS + NEGBIN + ["--method", "closed", "--delta", "1e-6"],
        "eps=4.77981594425 delta=1e-06 method=closed eps1=nan\n"),
    "binomial-n-p": (
        GAUSS + ["--family", "binomial", "--n", "50", "--p", "0.2",
                 "--delta", "1e-6"],
        "eps=2.26922225952 delta=1e-06 method=hs eps1=0.0221933798748\n"),
    "binomial-n-m": (
        GAUSS + ["--family", "binomial", "--n", "50", "--m", "10",
                 "--delta", "1e-6"],
        "eps=2.26922225952 delta=1e-06 method=hs eps1=0.0221933798748\n"),
    "poisson-delta": (
        GAUSS + ["--family", "poisson", "--m", "10", "--delta", "1e-6"],
        "eps=2.17651081085 delta=1e-06 method=hs eps1=0\n"),
    "poisson-eps": (
        GAUSS + ["--family", "poisson", "--m", "10", "--eps", "3"],
        "eps=3 delta=4.29542403517e-16 method=hs eps1=0\n"),
    "rnm-hs-one-round": (
        GAUSS + ["--family", "rnm", "--m", "10", "--delta", "1e-6"],
        "eps=2.49033927917 delta=1e-06 method=hs eps1=nan\n"),
    "rnm-hs-four-rounds": (
        GAUSS + ["--family", "rnm", "--m", "10", "--rounds", "4",
                 "--delta", "1e-6"],
        "eps=6.54792499542 delta=1e-06 method=hs eps1=nan\n"),
    "rnm-hs-monotone": (
        GAUSS + ["--family", "rnm", "--m", "10", "--monotone",
                 "--delta", "1e-6"],
        "eps=1.18174648285 delta=1e-06 method=hs eps1=nan\n"),
    "rnm-closed": (
        GAUSS + ["--family", "rnm", "--m", "10", "--method", "closed",
                 "--delta", "1e-6"],
        "eps=2.96384621378 delta=1e-06 method=closed eps1=nan\n"),
    "gaussian-rdp": (
        GAUSS + ["--method", "rdp", "--delta", "1e-6"],
        "eps=1.14316872058 delta=1e-06 method=rdp eps1=nan\n"),
    "subsampled-hs": (
        ["guarantee", "--base", "subsampled_gaussian", "--q", "0.2",
         "--sigma", "2", "--steps", "4", "--delta", "1e-6"],
        "eps=1.33478355408 delta=1e-06 method=hs eps1=nan\n"),
    "points-negbin-hs": (
        "points", "eps=4.01088809967 delta=1e-06 method=hs eps1=0.5\n"),
}


@pytest.mark.parametrize("name", list(LOCKED))
def test_accepted_cell_output_is_locked(name, tmp_path, monkeypatch):
    monkeypatch.delenv("PRIVSEL_PLD_CACHE", raising=False)
    argv, expected = LOCKED[name]
    if argv == "points":
        argv = points_config(tmp_path) + ["--family", "negbin", "--eta", "1",
                                          "--m", "10", "--delta", "1e-6"]
    assert run(argv) == (0, expected)


def config(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return ["--config", str(path)]


@pytest.mark.parametrize("family", [
    NEGBIN + ["--method", "closed"],
    ["--family", "rnm", "--m", "10"],
    ["--family", "rnm", "--m", "10", "--rounds", "4"],
    ["--family", "rnm", "--m", "10", "--monotone"],
    ["--family", "rnm", "--m", "10", "--method", "closed"],
], ids=["negbin-closed", "rnm-hs", "rnm-hs-rounds", "rnm-monotone", "rnm-closed"])
def test_sensitivity_is_honoured_on_every_path(family):
    # a Gaussian mechanism depends on sigma and sensitivity only through
    # their ratio, so sigma 4 at sensitivity 2 must print what sigma 2 does
    scaled = run(GAUSS + ["--sensitivity", "2", *family, "--delta", "1e-6"])
    plain = run(["guarantee", "--base", "gaussian", "--sigma", "2", *family,
                 "--delta", "1e-6"])
    assert scaled == plain
    assert scaled[0] == 0


def test_closed_form_is_no_smaller_than_hs_at_sensitivity_two():
    def eps(method):
        rc, out = run(GAUSS + ["--sensitivity", "2", *NEGBIN,
                               "--method", method, "--delta", "1e-6"])
        assert rc == 0
        return float(out.split()[0].removeprefix("eps="))

    assert eps("closed") >= eps("hs")


def refused(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc == 2 and out.out == "" and out.err.startswith("error: ")


RNM = ["--family", "rnm", "--m", "10"]


@pytest.mark.parametrize("argv", [
    GAUSS + RNM + ["--rounds", "4", "--method", "closed", "--delta", "1e-6"],
    GAUSS + ["--family", "rnm", "--m", "10.9", "--delta", "1e-6"],
    GAUSS + ["--family", "negbin", "--gamma", "0.01", "--m", "300",
             "--delta", "1e-6"],
    GAUSS + ["--family", "binomial", "--n", "50", "--p", "0.2", "--m", "10",
             "--delta", "1e-6"],
    GAUSS + ["--family", "binomial", "--n", "50", "--p", "0.2",
             "--method", "rdp", "--delta", "1e-6"],
    GAUSS + ["--family", "binomial", "--n", "50", "--p", "0.2",
             "--method", "closed", "--delta", "1e-6"],
    GAUSS + ["--family", "poisson", "--m", "10", "--method", "rdp",
             "--delta", "1e-6"],
    GAUSS + ["--family", "poisson", "--m", "10", "--method", "closed",
             "--delta", "1e-6"],
    GAUSS + RNM + ["--method", "rdp", "--delta", "1e-6"],
    GAUSS + ["--method", "closed", "--delta", "1e-6"],
], ids=["rnm-closed-rounds", "rnm-fractional-m", "negbin-gamma-and-m",
        "binomial-p-and-m", "binomial-rdp", "binomial-closed", "poisson-rdp",
        "poisson-closed", "rnm-rdp", "bare-closed"])
def test_dropped_or_unsupported_input_is_refused(argv, capsys):
    assert refused(argv, capsys)


@pytest.mark.parametrize("cfg", [
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "rnm", "m": 10, "rounds": 2.5}},
    {"base": {"kind": "subsampled_gaussian", "q": 0.2, "sigma": 2,
              "steps": 3.9}},
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "binomial", "n": 50.5, "p": 0.2}},
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "rnm", "m": 10, "monotone": "false"}},
    {"base": {"kind": "gaussian", "sigma": 4}, "method": ["x"]},
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "negbin", "eta": 1, "m": 300},
     "method": "closed-form"},
    {"base": {"kind": "subsampled-gaussian", "q": 0.2, "sigma": 2}},
    {"base": {"kind": "pointwise", "points": POINTS}},
], ids=["fractional-rounds", "fractional-steps", "fractional-trials",
        "monotone-not-bool", "method-not-a-name", "alias-closed-form",
        "alias-subsampled-gaussian", "alias-pointwise"])
def test_bad_config_is_refused(cfg, tmp_path, capsys):
    argv = ["guarantee", *config(tmp_path, cfg), "--delta", "1e-6"]
    assert refused(argv, capsys)


# an integer that names no open descriptor: open() would take it as one
@pytest.mark.parametrize("out", [987654, ["x.csv"]], ids=["int", "list"])
@pytest.mark.parametrize("command", ["profile", "adjust"])
def test_config_out_must_be_a_path(command, out, tmp_path, capsys):
    base = ["--base", "gaussian", "--sigma", "4"] if command == "profile" else []
    argv = [command, *config(tmp_path, {"out": out, "sigmas": [2]}), *base]
    assert refused(argv, capsys)


@pytest.mark.parametrize("key", ["q", "eps_q", "delta", "m", "eta"])
def test_adjust_config_reals_are_checked(key, tmp_path, capsys):
    assert refused(["adjust", *config(tmp_path, {key: "abc"})], capsys)


def test_adjust_mean_count_of_zero_is_refused(capsys):
    assert refused(["adjust", "--m", "0", "--sigmas", "2"], capsys)


SUBSAMPLED = ["guarantee", "--base", "subsampled_gaussian", "--q", "0.01",
              "--steps", "10"]


@pytest.mark.parametrize("argv", [
    GAUSS + ["--family", "poisson", "--m", "10", "--rounds", "4",
             "--delta", "1e-6"],
    GAUSS + ["--family", "poisson", "--m", "10", "--eta", "2",
             "--delta", "1e-6"],
    GAUSS + ["--family", "binomial", "--n", "50", "--p", "0.2", "--eta", "2",
             "--delta", "1e-6"],
    GAUSS + NEGBIN + ["--rounds", "4", "--delta", "1e-6"],
    GAUSS + NEGBIN + ["--monotone", "--delta", "1e-6"],
    GAUSS + RNM + ["--eta", "2", "--delta", "1e-6"],
    GAUSS + ["--steps", "1000", "--delta", "1e-6"],
    GAUSS + ["--q", "0.01", "--delta", "1e-6"],
    ["guarantee", "--base", "pure", "--eps-base", "1", "--sensitivity", "2",
     *NEGBIN, "--method", "closed", "--delta", "1e-6"],
    ["profile", "--base", "gaussian", "--sigma", "4", "--eps-base", "1"],
], ids=["poisson-rounds", "poisson-eta", "binomial-eta", "negbin-rounds",
        "negbin-monotone", "rnm-eta", "gaussian-steps", "gaussian-q",
        "pure-sensitivity", "profile-gaussian-eps"])
def test_field_the_kind_does_not_read_is_refused(argv, capsys):
    assert refused(argv, capsys)


@pytest.mark.parametrize("cfg", [
    {"base": {"kind": "gaussian", "sigma": 4, "steps": 1000}},
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "poisson", "m": 10, "rounds": 4}},
    {"base": {"kind": "gaussian", "sigma": 4},
     "family": {"kind": "rnm", "m": 10, "gamma": 0.1}},
], ids=["base-field", "family-field", "rnm-field"])
def test_config_field_the_kind_does_not_read_is_refused(cfg, tmp_path, capsys):
    argv = ["guarantee", *config(tmp_path, cfg), "--delta", "1e-6"]
    assert refused(argv, capsys)


@pytest.mark.parametrize("argv", [
    GAUSS + NEGBIN + ["--method", "rdp"],
    GAUSS + NEGBIN + ["--method", "closed"],
    ["guarantee", "--base", "pure", "--eps-base", "1", *NEGBIN,
     "--method", "closed"],
    GAUSS + RNM,
    GAUSS,
], ids=["negbin-rdp", "negbin-closed", "pure-closed", "rnm", "bare-base"])
def test_fixed_eps1_outside_a_count_hs_bound_is_refused(argv, capsys):
    assert refused(argv + ["--eps1", "0.3", "--delta", "1e-6"], capsys)


@pytest.mark.parametrize("family", [
    NEGBIN,
    ["--family", "binomial", "--n", "50", "--p", "0.2"],
    ["--family", "poisson", "--m", "10"],
], ids=["negbin", "binomial", "poisson"])
def test_fixed_eps1_is_read_by_the_count_hs_bound(family):
    rc, out = run(GAUSS + family + ["--eps1", "0.3", "--delta", "1e-6"])
    assert rc == 0
    assert out.endswith(" method=hs eps1=0.3\n")


@pytest.mark.parametrize("argv", [
    GAUSS + ["--family", "negbin", "--eta", "1", "--m", "10"],
    GAUSS + ["--family", "poisson", "--m", "10"],
    GAUSS + ["--family", "binomial", "--n", "100", "--p", "0.1"],
    ["guarantee", "--base", "pure", "--eps-base", "1",
     "--family", "negbin", "--eta", "1", "--m", "10"],
], ids=["negbin", "poisson", "binomial", "pure-negbin"])
def test_fixed_eps1_whose_shift_overflows_is_refused(argv, capsys):
    # e^710 overflows a float, so the count's shift cannot be computed
    rc = cli.main(argv + ["--eps1", "710", "--delta", "1e-6"])
    out = capsys.readouterr()
    assert (rc, out.out) == (2, "")
    assert out.err.startswith("error: eps1=710 ")


def test_large_fixed_eps1_below_the_overflow_is_answered():
    argv = GAUSS + ["--family", "negbin", "--eta", "1", "--m", "10",
                    "--eps1", "700", "--delta", "1e-6"]
    assert run(argv) == (0, "eps=1401.18174648 delta=1e-06 method=hs eps1=700\n")


@pytest.mark.parametrize("method", ["hs", "rdp"])
def test_subsampled_sensitivity_divides_sigma(method):
    # sigma 2 at sensitivity 2 is the same mechanism as sigma 1 at 1
    tail = ["--method", method, "--delta", "1e-6"]
    scaled = run(SUBSAMPLED + ["--sigma", "2", "--sensitivity", "2", *tail])
    plain = run(SUBSAMPLED + ["--sigma", "1", *tail])
    assert scaled == plain
    assert scaled[0] == 0


@pytest.mark.parametrize("count", [["--m", "300"], ["--gamma", "0.01"]],
                         ids=["m", "gamma"])
def test_pure_closed_accepts_the_negbin_count(count):
    argv = ["guarantee", "--base", "pure", "--eps-base", "1", "--family",
            "negbin", "--eta", "1", *count, "--method", "closed",
            "--delta", "1e-6"]
    assert run(argv) == (0, "eps=3 delta=1e-06 method=closed eps1=nan\n")


GRID = ["--grid-spacing", "1e-3"]


@pytest.mark.parametrize("argv", [
    GAUSS + ["--delta", "1e-6"],
    GAUSS + NEGBIN + ["--delta", "1e-6"],
    GAUSS + NEGBIN + ["--method", "rdp", "--delta", "1e-6"],
    GAUSS + NEGBIN + ["--method", "closed", "--delta", "1e-6"],
    GAUSS + RNM + ["--delta", "1e-6"],
    ["guarantee", "--base", "pure", "--eps-base", "1", *NEGBIN,
     "--delta", "1e-6"],
    ["guarantee", "--base", "pure", "--eps-base", "1", *NEGBIN,
     "--method", "closed", "--delta", "1e-6"],
    SUBSAMPLED + ["--sigma", "1", "--method", "rdp", "--delta", "1e-6"],
    SUBSAMPLED + ["--sigma", "1", *NEGBIN, "--method", "rdp",
                  "--delta", "1e-6"],
    ["profile", "--base", "gaussian", "--sigma", "4"],
    ["profile", "--base", "pure", "--eps-base", "1"],
    ["compare", "fig1"],
    ["compare", "fig2"],
    ["compare", "fig3"],
    ["compare", "fig4"],
], ids=["gaussian-bare", "gaussian-negbin-hs", "gaussian-negbin-rdp",
        "gaussian-negbin-closed", "gaussian-rnm", "pure-negbin-hs",
        "pure-negbin-closed", "subsampled-bare-rdp", "subsampled-negbin-rdp",
        "profile-gaussian", "profile-pure", "fig1", "fig2", "fig3", "fig4"])
def test_grid_spacing_without_a_loss_grid_is_refused(argv, capsys):
    assert refused(argv + GRID, capsys)


@pytest.mark.parametrize("command", ["guarantee", "profile"])
def test_grid_spacing_on_a_points_base_is_refused(command, tmp_path, capsys):
    _, *cfg = points_config(tmp_path)
    tail = [*NEGBIN, "--delta", "1e-6"] if command == "guarantee" else []
    assert refused([command, *cfg, *tail, *GRID], capsys)


def test_grid_spacing_is_read_by_a_subsampled_hs_query():
    argv = SUBSAMPLED + ["--sigma", "1", "--delta", "1e-6"]
    rc, fine = run(argv)
    assert rc == 0
    rc, coarse = run(argv + GRID)
    assert rc == 0
    assert coarse != fine


# each once printed a more private-looking answer and exited 0
@pytest.mark.parametrize("points, target", [
    ([[1.0, -0.5]], ["--delta", "1e-6"]),
    ([[1.0, -0.5]], ["--eps", "1"]),
    ([[-3.0, 1e-7]], ["--delta", "1e-6"]),
], ids=["negative-delta", "negative-delta-at-eps", "negative-eps"])
def test_invalid_base_point_is_refused(points, target, tmp_path, capsys):
    base = {"kind": "points", "points": points}
    assert refused(["guarantee", *config(tmp_path, {"base": base}), *target], capsys)


def test_pure_base_with_negative_eps_is_refused(capsys):
    argv = ["guarantee", "--base", "pure", "--eps-base", "-1", "--delta", "1e-6"]
    assert refused(argv, capsys)


@pytest.mark.parametrize("grid", ["0:inf:1", "-1e308:1e308:1", "0:1e9:1e-3",
                                  "0:1:1e-5"],
                         ids=["inf-bound", "overflowing-span", "huge", "over-cap"])
def test_unbounded_eps_grid_is_refused(grid, capsys):
    argv = ["profile", "--base", "gaussian", "--sigma", "4", f"--eps-grid={grid}"]
    assert refused(argv, capsys)



def test_pure_base_past_the_exp_range_is_answered(recwarn):
    # e^800 overflows a float; the profile must still answer without warnings
    from privsel.profiles import BISECT_TOL

    argv = ["guarantee", "--base", "pure", "--eps-base", "800"]
    rc, out = run(argv + ["--delta", "1e-6"])
    assert rc == 0
    eps = float(out.split()[0].removeprefix("eps="))
    assert 800.0 <= eps <= 800.0 + BISECT_TOL
    assert run(argv + ["--eps", "1000"]) == (
        0, "eps=1000 delta=0 method=hs eps1=nan\n")
    assert not recwarn.list
