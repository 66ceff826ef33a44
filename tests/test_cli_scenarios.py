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
GEOMETRIC_RDP = ["--family", "negbin", "--m", "10", "--method", "rdp"]
RDP_RANGE = ("sensitivity**2 / (2 sigma**2) is out of float range, "
             "got sensitivity={sens}, sigma={sigma}")


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
        "eps=1.3347826788 delta=1e-06 method=hs eps1=nan\n"),
    "points-negbin-hs": (
        "points", "eps=4.01088785671 delta=1e-06 method=hs eps1=0.5\n"),
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
    ["guarantee", "--base", "pure", "--eps-base", "1", "--family", "poisson", "--m", "10",
     "--method", "rdp", "--delta", "1e-6"],
    GAUSS + ["--family", "poisson", "--m", "10", "--method", "closed",
             "--delta", "1e-6"],
    GAUSS + RNM + ["--method", "rdp", "--delta", "1e-6"],
    GAUSS + ["--method", "closed", "--delta", "1e-6"],
], ids=["rnm-closed-rounds", "rnm-fractional-m", "negbin-gamma-and-m",
        "binomial-p-and-m", "binomial-rdp", "binomial-closed", "poisson-rdp",
        "poisson-closed", "rnm-rdp", "bare-closed"])
def test_dropped_or_unsupported_input_is_refused(argv, capsys):
    assert refused(argv, capsys)


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_rnm_rounds_below_one_is_refused_by_name(rounds, capsys):
    argv = GAUSS + RNM + ["--rounds", rounds, "--delta", "1e-6"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: rounds must be >= 1, got {rounds}\n"


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


@pytest.mark.parametrize("argv, message", [
    (GAUSS + ["--family", "binomial", "--n", "0", "--m", "1", "--delta", "1e-6"],
     "error: trials n must be a positive integer, got 0"),
    (GAUSS + ["--family", "binomial", "--n", "0", "--p", "0.5", "--delta", "1e-6"],
     "error: trials n must be a positive integer, got 0"),
    (["guarantee", "--base", "gaussian", "--sigma", "1000", "--sensitivity", "5e-324",
      "--delta", "2.5e-5"],
     "error: sensitivity / sigma underflows to 0, got sensitivity=5e-324, sigma=1000.0"),
    (["guarantee", "--base", "gaussian", "--sigma", "1e-200", *GEOMETRIC_RDP, "--delta", "1e-6"],
     "error: " + RDP_RANGE.format(sens="1.0", sigma="1e-200")),
    (["guarantee", "--base", "gaussian", "--sigma", "5e-324", "--family", "poisson", "--m", "1",
      "--method", "rdp", "--eps", "2"],
     "error: " + RDP_RANGE.format(sens="1.0", sigma="5e-324")),
    (["guarantee", "--base", "gaussian", "--sigma", "1", "--sensitivity", "1e200",
      *GEOMETRIC_RDP, "--delta", "1e-6"],
     "error: " + RDP_RANGE.format(sens="1e+200", sigma="1.0")),
    (["guarantee", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1e200",
      "--delta", "1e-6"],
     "error: 2 (sigma / sensitivity)**2 is out of float range, got sigma=1e+200, "
     "sensitivity=1.0"),
    (["guarantee", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1",
      "--sensitivity", "1e200", "--delta", "1e-6"],
     "error: 2 (sigma / sensitivity)**2 is out of float range, got sigma=1.0, "
     "sensitivity=1e+200"),
    (["adjust", "--sigmas", "1e200"],
     "error: 2 sigma**2 is out of float range, got sigma=1e+200"),
    (["adjust", "--sigmas", "1e-200"],
     "error: 2 sigma**2 is out of float range, got sigma=1e-200"),
    *((GAUSS + ["--family", "negbin", "--eta", "1", "--gamma", "1e-309", "--method", method,
                "--delta", "1e-6"],
       "error: 1 / gamma overflows a float, got gamma=1e-309")
      for method in ("hs", "rdp", "closed")),
    (["guarantee", "--base", "gaussian", "--sigma", "1", "--sensitivity", "1e-300",
      "--family", "negbin", "--eta", "1e18", "--gamma", "5e-324", "--delta", "0.1"],
     "error: 1 / gamma overflows a float, got gamma=5e-324"),
    *((["guarantee", "--base", "gaussian", *base, "--family", family, "--m", "10",
        "--method", "closed", "--delta", "1e-6"],
       "error: 2 (sigma / sensitivity)**2 is out of float range, got " + got)
      for family in ("negbin", "rnm")
      for base, got in ((["--sigma", "1e-200"], "sigma=1e-200, sensitivity=1.0"),
                        (["--sigma", "1", "--sensitivity", "1e200"],
                         "sigma=1.0, sensitivity=1e+200"),
                        (["--sigma", "1e200"], "sigma=1e+200, sensitivity=1.0"))),
    (GAUSS + ["--family", "rnm", "--m", "1e305", "--method", "closed", "--delta", "1e-6"],
     "error: candidates/delta = 1e+305/1e-06 overflows float64"),
    (["guarantee", "--base", "pure", "--eps-base", "1e300", "--family", "negbin", "--eta",
      "1e10", "--gamma", "0.5", "--method", "closed", "--delta", "1e-6"],
     "error: (eta+2)*eps = (1e+10+2)*1e+300 overflows float64"),
    (["guarantee", "--base", "gaussian", "--sigma", "1e-150", "--family", "negbin", "--eta",
      "1e10", "--gamma", "0.5", "--method", "closed", "--delta", "1e-6"],
     "error: the closed-form eps overflows float64 at sigma=1e-150, eta=1e+10, gamma=0.5, "
     "delta=1e-06"),
], ids=["binomial-zero-trials-m", "binomial-zero-trials-p", "gaussian-ratio-underflow",
        "gaussian-rdp-square-underflow", "gaussian-rdp-subnormal-sigma",
        "gaussian-rdp-square-overflow", "subsampled-square-overflow",
        "subsampled-ratio-square-underflow", "adjust-square-overflow",
        "adjust-square-underflow", "negbin-gamma-reciprocal-hs",
        "negbin-gamma-reciprocal-rdp", "negbin-gamma-reciprocal-closed",
        "negbin-gamma-reciprocal-inf-times-zero",
        *(f"{family}-closed-square-{way}" for family in ("negbin", "rnm")
          for way in ("underflow", "ratio-underflow", "overflow")),
        "rnm-closed-eps-overflow", "pure-closed-eps-overflow",
        "negbin-closed-eps-overflow"])
def test_arithmetic_failure_is_refused_by_name(argv, message, capsys):
    # the m form divided by the trial count, the Gaussian leaf by an
    # underflowed ratio, the Renyi curve and the loss grid by a square
    # that under- or overflowed: each ended in a traceback.  A gamma whose
    # 1/gamma overflows was blamed on eps1, on a points list or on the target.
    # The closed forms divided by a square that under- or overflowed, and
    # an eps of theirs that overflowed was blamed on a points list
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", message + "\n")


def test_subnormal_gaussian_ratio_still_answers():
    argv = ["guarantee", "--base", "gaussian", "--sigma", "1", "--sensitivity", "1e-310",
            "--delta", "2.5e-5"]
    assert run(argv) == (0, "eps=0 delta=2.5e-05 method=hs eps1=nan\n")


@pytest.mark.parametrize("family, eps, eps1", [
    # the negbin crossing -r (Phi^-1(1/ratio) + r/2) at r = 1e-323 is two
    # subnormal units: e^eps1 is 1 and the base is 0 there, as at eps1 = 0,
    # so the shift is the same float
    (["negbin", "--m", "10"], "0", "9.88131291682e-324"),
    (["poisson", "--m", "10"], "9.53674316406e-07", "0"),
    (["binomial", "--n", "20", "--m", "5"], "9.53674316406e-07", "0"),
], ids=["negbin", "poisson", "binomial"])
def test_subnormal_gaussian_ratio_answers_a_count_without_a_warning(family, eps, eps1, capsys):
    # eps / r once overflowed to inf in an array pass of the eps1 search,
    # with a RuntimeWarning, which the suite turns into an error
    argv = ["guarantee", "--base", "gaussian", "--sigma", "0.5", "--sensitivity", "5e-324",
            "--family", *family, "--delta", "1e-6"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (f"eps={eps} delta=1e-06 method=hs eps1={eps1}\n", "")


@pytest.mark.parametrize("flags, out", [
    # a ratio (1-gamma)/gamma <= 2 keeps the slope above -1/ratio from eps1 = 0 on
    (["--sigma", "4", "--gamma", "0.5"], "eps=1.28803443909 delta=1e-06 method=hs eps1=0"),
    (["--sigma", "4", "--gamma", repr(0.5 - 2**-54)],
     "eps=1.28803443909 delta=1e-06 method=hs eps1=0"),
    # a huge ratio crosses far out, past where the base bottoms out at 1e-15,
    # the old search's range top (which answered eps=1321.82567692 here)
    (["--sigma", "4", "--gamma", "1e-300"],
     "eps=27.8267641068 delta=1e-06 method=hs eps1=9.23052407484"),
    # at a large r the slope at eps1 = 0, -Phi(-r/2), is above -1/ratio already
    (["--sigma", "0.025", "--m", "300"], "eps=1042.43838978 delta=1e-06 method=hs eps1=0"),
    (["--sigma", "1e-200", "--sensitivity", "1e100", "--m", "300", "--eps", "5"],
     "eps=5 delta=1 method=hs eps1=0"),
    # unless the ratio is huge too: the crossing, near eps1 = 680, is capped
    (["--sigma", "0.025", "--gamma", "1e-300"],
     "eps=3677.5607748 delta=1e-06 method=hs eps1=50"),
], ids=["gamma-half", "gamma-below-half", "gamma-1e-300", "r-40", "r-1e300", "r-40-capped"])
def test_negbin_crossing_at_the_edges(flags, out, capsys):
    argv = ["guarantee", "--base", "gaussian", "--family", "negbin", "--eta", "1", *flags]
    if "--eps" not in flags:
        argv += ["--delta", "1e-6"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (out + "\n", "")


def test_negbin_gamma_whose_reciprocal_overflows_is_refused(capsys):
    argv = ["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "negbin",
            "--gamma", "5e-324", "--delta", "1e-6"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: 1 / gamma overflows a float, got gamma=5e-324\n")


@pytest.mark.parametrize("delta, eps", [("1e-10", "28.4314731123"),
                                        ("1e-30", "29.3313065972")])
def test_closed_negbin_answers_where_gamma_times_delta_underflows(delta, eps, capsys):
    # log(1 / (gamma * delta)) was inf at 1e-10, an eps the points list refused
    # without naming an input, and a division by zero at 1e-30
    argv = GAUSS + ["--family", "negbin", "--gamma", "1e-300", "--method", "closed",
                    "--delta", delta]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (f"eps={eps} delta={delta} method=closed eps1=nan\n", "")


def test_binomial_threshold_above_the_points_range_answers(tmp_path, capsys):
    # the points bottom out at eps = 0.001, below the admissibility threshold:
    # an eps1 range topped there left only inadmissible candidates, exit 3
    cfg = {"base": {"kind": "points", "points": [[0.001, 1e-16]]},
           "family": {"kind": "binomial", "n": 2, "p": 0.99999999999999}}
    assert cli.main(["guarantee", *config(tmp_path, cfg), "--delta", "1e-6"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "eps=0.0109577512936 delta=1e-06 method=hs eps1=0.00995825079402\n", "")


@pytest.mark.parametrize("argv", [
    ["guarantee", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1e-154",
     "--delta", "1e-6"],
    ["guarantee", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1",
     "--grid-spacing", "5e-324", "--delta", "1e-6"],
], ids=["tiny-sigma", "subnormal-spacing"])
def test_a_loss_grid_past_every_float_is_refused_by_its_budget(argv, capsys):
    # its cell count overflowed to inf, and int(inf) raised OverflowError
    assert cli.main(argv) == 4
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "error: loss grid cell count overflows a float, budget is 268435456\n")


def test_tiny_q_answers_without_a_warning(capsys):
    # expm1(loss) / q overflowed to inf with a RuntimeWarning, which the
    # suite turns into an error; the answer itself was already right
    argv = ["guarantee", "--base", "subsampled_gaussian", "--q", "5e-324", "--sigma", "1",
            "--delta", "1e-6"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("eps=0 delta=1e-06 method=hs eps1=nan\n", "")


def test_adjust_gap_is_inf_where_the_direct_bound_is_zero(capsys):
    # a q this small leaves eps_direct at 0, and the gap divided by it
    assert cli.main(["adjust", "--q", "1e-100", "--sigmas", "0.1"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "sigma,max_steps,eps_final,delta_final,eps_direct,gap_rel\n"
        "0.1,1048576,2.742351028,1e-06,0,inf\n", "")


# an integer that names no open descriptor: open() would take it as one
@pytest.mark.parametrize("out", [987654, ["x.csv"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("command", ["profile", "adjust"])
def test_config_out_must_be_a_path(command, out, tmp_path, capsys):
    base = ["--base", "gaussian", "--sigma", "4"] if command == "profile" else []
    sigmas = {"sigmas": [2]} if command == "adjust" else {}
    argv = [command, *config(tmp_path, {"out": out, **sigmas}), *base]
    rc = cli.main(argv)
    got = capsys.readouterr()
    assert (rc, got.out) == (2, "")
    assert got.err == f"error: config 'out' must be a path string, got {out!r}\n"


@pytest.fixture
def no_tables(monkeypatch):
    """Every table builder of compare and adjust, replaced by one that
    fails the test if it is called."""
    from privsel import presets

    def build(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("fig1_table", "fig4_tables", "fig8_adjust_table"):
        monkeypatch.setattr(presets, name, build)


@pytest.mark.parametrize("argv", [
    ["profile", "--base", "gaussian", "--sigma", "4", "--eps-grid", "0:1:1"],
    ["compare", "fig1"],
    ["compare", "fig4"],
    ["adjust", "--sigmas", "0.5"],
], ids=["profile", "compare", "fig4", "adjust"])
def test_out_that_cannot_be_opened_is_refused(argv, no_tables, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"error: cannot write {out}: No such file or directory\n"


def test_pld_cache_that_cannot_be_written_is_refused(tmp_path, monkeypatch, capsys):
    # refused before any grid is built: fig6's base would compose 14,063
    # steps first and then throw the work away
    from privsel import pld

    def no_build(*args):
        raise AssertionError("built a grid for a cache that cannot be written")

    monkeypatch.setattr(pld, "_build", no_build)
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "sub"
    monkeypatch.setenv("PRIVSEL_PLD_CACHE", str(cache))
    rc = cli.main(["guarantee", "--base", "subsampled_gaussian", "--q", "0.2",
                   "--sigma", "1", "--steps", "4", "--delta", "1e-6"])
    got = capsys.readouterr()
    assert (rc, got.out) == (2, "")
    assert got.err == f"error: cannot write PLD cache {cache}: Not a directory\n"


def test_convolution_out_of_memory_is_a_budget_error(tmp_path, monkeypatch, capsys):
    # numpy's MemoryError ended in a traceback with exit 1
    from privsel import pld

    def no_memory(x, y):
        raise MemoryError

    monkeypatch.setattr(pld, "_fftconvolve", no_memory)
    monkeypatch.setenv("PRIVSEL_PLD_CACHE", str(tmp_path))
    rc = cli.main(["guarantee", "--base", "subsampled_gaussian", "--q", "0.2",
                   "--sigma", "1", "--steps", "4", "--delta", "1e-6"])
    got = capsys.readouterr()
    assert (rc, got.out) == (4, "")
    assert got.err == "error: convolution needs 144519 cells, more memory than is free\n"
    assert list(tmp_path.iterdir()) == []


def test_grid_past_its_cell_budget_leaves_no_pld_cache_directory(tmp_path, monkeypatch,
                                                                 capsys):
    # both grids of both directions are sized before the cache is touched
    cache = tmp_path / "new"
    monkeypatch.setenv("PRIVSEL_PLD_CACHE", str(cache))
    rc = cli.main(["guarantee", "--base", "subsampled_gaussian", "--q", "0.01",
                   "--sigma", "1", "--grid-spacing", "1e-10", "--delta", "1e-6"])
    got = capsys.readouterr()
    assert (rc, got.out) == (4, "")
    assert got.err == "error: loss grid needs 40342327838 cells, budget is 268435456\n"
    assert not cache.exists()


def test_fig4_count_table_that_cannot_be_opened_is_refused(no_tables, tmp_path, capsys):
    # the count CDF table goes beside --out; a directory stands in its way
    (tmp_path / "x_kcdf.csv").mkdir()
    assert cli.main(["compare", "fig4", "--out", str(tmp_path / "x.csv")]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"error: cannot write {tmp_path / 'x_kcdf.csv'}: ")
    assert got.err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_fig4_count_table_goes_beside_out_in_a_dotted_directory(tmp_path, monkeypatch, capsys):
    # the suffix goes on the file name, not after the last dot of the path
    from privsel import presets
    monkeypatch.setattr(presets, "fig4_tables",
                        lambda: [(("a",), [(1,)]), (("k",), [(2,)])])
    out = tmp_path / "runs.v2" / "fig4"
    out.parent.mkdir()
    assert cli.main(["compare", "fig4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in out.parent.iterdir()) == ["fig4", "fig4_kcdf"]
    assert (out.parent / "fig4_kcdf").read_text() == "k\n2\n"


def test_fig4_leaves_an_existing_out_as_it_was(no_tables, tmp_path, capsys):
    # neither file is written unless both open
    out = tmp_path / "x.csv"
    out.write_text("old content\n")
    (tmp_path / "x_kcdf.csv").mkdir()
    assert cli.main(["compare", "fig4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {tmp_path / 'x_kcdf.csv'}: ")
    assert out.read_text() == "old content\n"


@pytest.mark.parametrize("argv", [["compare", "fig4"], ["adjust", "--sigmas", "0.5"]],
                         ids=["fig4", "adjust"])
def test_failed_table_leaves_out_as_it_was(argv, tmp_path, monkeypatch, capsys):
    from privsel import presets
    from privsel.errors import UnreachableTargetError

    def build(*args, **kwargs):
        raise UnreachableTargetError("no table")

    monkeypatch.setattr(presets, "fig4_tables", build)
    monkeypatch.setattr(presets, "fig8_adjust_table", build)
    out = tmp_path / "x.csv"
    out.write_text("old content\n")
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: no table\n"
    assert out.read_text() == "old content\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("key", ["q", "eps_q", "delta", "m", "eta", "sigmas"])
def test_adjust_config_reals_are_checked(key, tmp_path, capsys):
    assert refused(["adjust", *config(tmp_path, {key: "abc"})], capsys)
    # a null is given, not absent, and refused by the same message
    assert cli.main(["adjust", *config(tmp_path, {key: None})]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == ("error: config 'sigmas' must be a list, got None\n" if key == "sigmas"
                       else f"error: {key} must be a number, got None\n")


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


# a flag of 0 is given and overrides the config: 0 == False, so a test of
# truthiness would drop it and leave the config value in force
ZERO_CFG = {"base": {"kind": "gaussian", "sigma": 4},
            "family": {"kind": "negbin", "eta": 1, "m": 30}}


def test_zero_valued_flag_overrides_the_config(tmp_path):
    argv = ["guarantee", *config(tmp_path, ZERO_CFG), "--delta", "1e-6"]
    assert run(argv) == (
        0, "eps=2.28831100464 delta=1e-06 method=hs eps1=0.423411398213\n")
    assert run(argv + ["--eta", "0"]) == (
        0, "eps=1.9077539444 delta=1e-06 method=hs eps1=0.587818893612\n")


@pytest.mark.parametrize("cfg, flag, message", [
    (ZERO_CFG, ["--sigma", "0"],
     "gaussian base needs sigma > 0 and sensitivity > 0"),
    ({"base": {"kind": "subsampled_gaussian", "q": 0.01, "sigma": 1, "steps": 5}},
     ["--steps", "0"], "steps must be >= 1, got 0"),
], ids=["sigma", "steps"])
def test_zero_valued_flag_is_checked_not_dropped(cfg, flag, message, tmp_path,
                                                 capsys):
    rc = cli.main(["guarantee", *config(tmp_path, cfg), *flag, "--delta", "1e-6"])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (2, "", f"error: {message}\n")


def test_unset_monotone_flag_is_not_a_given_field(tmp_path):
    cfg = {"base": {"kind": "gaussian", "sigma": 4},
           "family": {"kind": "poisson", "m": 10}}
    args = cli.build_parser().parse_args(["guarantee", *config(tmp_path, cfg)])
    assert args.monotone is False
    assert cli._merge(cfg, args, "family") == {"kind": "poisson", "m": 10}
    assert run(["guarantee", *config(tmp_path, cfg), "--delta", "1e-6"]) == (
        0, "eps=2.17651081085 delta=1e-06 method=hs eps1=0\n")


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


@pytest.mark.parametrize("delta", ["-1", "0", "2"])
def test_pure_closed_form_checks_its_delta_target(delta, capsys):
    # the closed form reads no delta, and printed this one back as the answer's
    rc = cli.main(["guarantee", "--base", "pure", "--eps-base", "1", *NEGBIN,
                   "--method", "closed", f"--delta={delta}"])
    out = capsys.readouterr()
    assert (rc, out.out) == (2, "")
    assert out.err == f"error: delta target must be in (0,1], got {float(delta)}\n"


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


# float() reads a JSON true or false as 1 or 0; every number field refuses them
GAUSS_BASE = {"kind": "gaussian", "sigma": 4}
SUBSAMPLED_BASE = {"kind": "subsampled_gaussian", "q": 0.01, "sigma": 1}


def with_family(**family):
    return {"base": GAUSS_BASE, "family": family}


@pytest.mark.parametrize("cfg, field, value", [
    ({"base": {"kind": "gaussian", "sigma": True}}, "sigma", True),
    ({"base": {"kind": "gaussian", "sigma": False}}, "sigma", False),
    ({"base": {**GAUSS_BASE, "sensitivity": True}}, "sensitivity", True),
    ({"base": {**SUBSAMPLED_BASE, "q": True}}, "q", True),
    ({"base": {**SUBSAMPLED_BASE, "steps": True}}, "steps", True),
    ({"base": {"kind": "pure", "eps": True}}, "eps", True),
    ({"base": {"kind": "points", "points": [[True, False]]}},
     "bad points list: eps", True),
    (with_family(kind="negbin", eta=True, m=300), "eta", True),
    (with_family(kind="negbin", gamma=True), "gamma", True),
    (with_family(kind="negbin", m=True), "m", True),
    (with_family(kind="binomial", n=True, p=0.5), "n", True),
    (with_family(kind="binomial", n=50, p=True), "p", True),
    (with_family(kind="binomial", n=50, m=True), "m", True),
    (with_family(kind="poisson", m=True), "m", True),
    (with_family(kind="rnm", m=True), "m", True),
    (with_family(kind="rnm", m=10, rounds=True), "rounds", True),
], ids=["sigma", "sigma-false", "sensitivity", "q", "steps", "eps", "points",
        "negbin-eta", "negbin-gamma", "negbin-m", "binomial-n", "binomial-p",
        "binomial-m", "poisson-m", "rnm-m", "rnm-rounds"])
def test_boolean_scenario_number_is_refused(cfg, field, value, tmp_path, capsys):
    rc = cli.main(["guarantee", *config(tmp_path, cfg), "--delta", "1e-6"])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (
        2, "", f"error: {field} must be a number, got {value}\n")


@pytest.mark.parametrize("key, value", [
    ("sigmas", [True]), ("q", True), ("eps_q", True), ("delta", True),
    ("m", True), ("eta", True),
], ids=["sigmas", "q", "eps_q", "delta", "m", "eta"])
def test_boolean_adjust_number_is_refused(key, value, tmp_path, capsys):
    rc = cli.main(["adjust", *config(tmp_path, {key: value})])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (
        2, "", f"error: {key} must be a number, got True\n")


# each integer field of the scenario, given as a flag and as the config
# value its text reads as: a whole number in exponent form is answered,
# a fractional one refused by name
@pytest.mark.parametrize("field, text, cfg, tail", [
    ("steps", "1e1", {"base": SUBSAMPLED_BASE}, ["--method", "rdp"]),
    ("steps", "2.5", {"base": SUBSAMPLED_BASE}, ["--method", "rdp"]),
    ("n", "1e2", with_family(kind="binomial", p=0.1), []),
    ("n", "2.5", with_family(kind="binomial", p=0.1), []),
    ("m", "1e1", with_family(kind="rnm"), []),
    ("m", "10.5", with_family(kind="rnm"), []),
    ("rounds", "2e0", with_family(kind="rnm", m=10), []),
    ("rounds", "2.5", with_family(kind="rnm", m=10), []),
], ids=["steps-whole", "steps-fractional", "n-whole", "n-fractional",
        "rnm-m-whole", "rnm-m-fractional", "rounds-whole", "rounds-fractional"])
def test_integer_flag_reads_like_its_config_value(field, text, cfg, tail,
                                                  tmp_path, capsys):
    def call(cfg, flags):
        rc = cli.main(["guarantee", *config(tmp_path, cfg), *flags, *tail,
                       "--delta", "1e-6"])
        out = capsys.readouterr()
        return rc, out.out, out.err

    section = "family" if "family" in cfg else "base"
    by_config = call({**cfg, section: {**cfg[section], field: json.loads(text)}}, [])
    assert call(cfg, [f"--{field}", text]) == by_config
    if float(text).is_integer():
        assert by_config[0] == 0 and by_config[1]
    else:
        assert by_config == (2, "", f"error: {field} must be an integer, got {text}\n")


def test_unparsable_flag_is_refused_like_its_config_value(tmp_path, capsys):
    cfg = {"base": {"kind": "gaussian", "sigma": "abc"}}
    for argv in (["--base", "gaussian", "--sigma", "abc"], config(tmp_path, cfg)):
        rc = cli.main(["guarantee", *argv, "--delta", "1e-6"])
        out = capsys.readouterr()
        assert (rc, out.out, out.err) == (
            2, "", "error: sigma must be a number, got 'abc'\n")


# the pure-base closed form reads the count as the hs bound does, so a
# count the hs bound refuses, or none, is refused here too
@pytest.mark.parametrize("count", [
    ["--m", "0.5"], ["--m", "-3"], ["--m", "300", "--gamma", "0.01"], [],
], ids=["mean-below-one", "negative-mean", "m-and-gamma", "no-count"])
def test_pure_closed_refuses_the_count_hs_refuses(count, capsys):
    def call(base, method):
        rc = cli.main(["guarantee", *base, "--family", "negbin", "--eta", "1",
                       *count, "--method", method, "--delta", "1e-6"])
        out = capsys.readouterr()
        return rc, out.out, out.err

    pure = call(["--base", "pure", "--eps-base", "1"], "closed")
    assert pure == call(["--base", "gaussian", "--sigma", "4"], "hs")
    assert pure[:2] == (2, "")
    assert pure[2].startswith("error: ") and pure[2].count("\n") == 1


# the target flags and --grid-spacing read their text as a config number
# is read, so bad text is one error: line, not an argparse usage block
@pytest.mark.parametrize("argv, err", [
    (GAUSS + ["--family", "negbin", "--m", "30", "--delta", "abc"],
     "delta must be a number, got 'abc'"),
    (GAUSS + ["--delta", "nan"], "delta must be finite, got nan"),
    (GAUSS + ["--eps", "1e999"], "eps must be finite, got inf"),
    (GAUSS + ["--eps", "x"], "eps must be a number, got 'x'"),
    (GAUSS + NEGBIN + ["--eps1", "abc", "--delta", "1e-6"],
     "eps1 must be a number, got 'abc'"),
    (GAUSS + NEGBIN + ["--eps1", "nan", "--delta", "1e-6"],
     "eps1 must be finite, got nan"),
    (SUBSAMPLED + ["--sigma", "1", "--grid-spacing", "abc", "--delta", "1e-6"],
     "grid_spacing must be a number, got 'abc'"),
    (["profile", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1",
      "--grid-spacing="], "grid_spacing must be a number, got ''"),
    (["compare", "fig6", "--grid-spacing", "nan"], "grid_spacing must be finite, got nan"),
    (["adjust", "--grid-spacing", "inf"], "grid_spacing must be finite, got inf"),
], ids=["delta-text", "delta-nan", "eps-overflow", "eps-text", "eps1-text",
        "eps1-nan", "guarantee-grid", "profile-grid", "compare-grid", "adjust-grid"])
def test_target_and_grid_flags_are_refused_in_one_line(argv, err, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (2, "", f"error: {err}\n")


METOD = {"base": {"kind": "gaussian", "sigma": 4},
         "family": {"kind": "negbin", "m": 300}, "metod": "rdp"}


@pytest.mark.parametrize("command, cfg, unread, keys", [
    ("guarantee", METOD, "metod", "base, family, method"),
    ("guarantee", {"base": {"kind": "gaussian", "sigma": 4}, "out": "x.csv"},
     "out", "base, family, method"),
    ("guarantee", {**METOD, "delta": 1e-6}, "delta, metod", "base, family, method"),
    ("profile", {"base": {"kind": "gaussian", "sigma": 4},
                 "family": {"kind": "negbin", "m": 300}},
     "family", "base, out"),
    ("adjust", {"sigma": [2]}, "sigma", "q, eps_q, delta, m, eta, sigmas, out"),
], ids=["guarantee-metod", "guarantee-out", "guarantee-two", "profile-family",
        "adjust-sigma"])
def test_config_key_the_command_does_not_read_is_refused(command, cfg, unread, keys,
                                                         tmp_path, capsys):
    # dropping the key would answer another query: hs for the rdp asked
    # for, the default noise candidates for the ones given
    target = ["--delta", "1e-6"] if command == "guarantee" else []
    rc = cli.main([command, *config(tmp_path, cfg), *target])
    out = capsys.readouterr()
    assert (rc, out.out) == (2, "")
    assert out.err == f"error: {command} config does not read {unread}; its keys are {keys}\n"
