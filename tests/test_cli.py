"""End-to-end tests of the command-line interface.

A test whose assertion is an exit code and output calls `cli.main` in
this process, through `run_cli`.  A fresh interpreter runs what needs
one: the probes of which modules a call loads, a call under `-W error`,
a call with a timeout, and the Renyi-curve import probe.  The
config-error probes share one interpreter, asserting after each call.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import mpmath
import pytest

from privsel import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

GUARANTEE_HS = ["guarantee", "--base", "gaussian", "--sigma", "4",
                "--family", "negbin", "--eta", "1", "--m", "300",
                "--method", "hs", "--delta", "1e-6"]


def child_env():
    """Environment of every CLI child: the absolute src path first on
    PYTHONPATH, so privsel imports whatever the child's cwd, and no
    inherited PRIVSEL_PLD_CACHE, so no on-disk PLD cache from the
    caller's shell is read or written."""
    env = dict(os.environ)
    env.pop("PRIVSEL_PLD_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*argv, cwd=None):
    """`privsel argv` through `cli.main` in this process, in cwd when
    given, and with no PRIVSEL_PLD_CACHE, as a CLI child runs: its exit
    code (an argparse SystemExit's included) and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    here, cache = os.getcwd(), os.environ.pop("PRIVSEL_PLD_CACHE", None)
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:
                rc = 0 if e.code is None else e.code
    finally:
        os.chdir(here)
        if cache is not None:
            os.environ["PRIVSEL_PLD_CACHE"] = cache
    return CliRun(rc, out.getvalue(), err.getvalue())


def test_guarantee_hs_line():
    r = run_cli(*GUARANTEE_HS)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ("eps=2.79379844666 delta=1e-06 "
                        "method=hs eps1=0.646736322261\n")


def test_guarantee_json():
    r = run_cli(*GUARANTEE_HS, "--format", "json")
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    assert got == {"eps": 2.7937984466552734, "delta": 1e-06,
                   "method": "hs", "eps1": 0.6467363222605781}


def test_main_builds_its_parser_once_a_process():
    # two calls share one parser, and a call argparse refuses (exit 2)
    # leaves the next call's parse as it was
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    want = vars(parser.parse_args(GUARANTEE_HS))
    first = run_cli(*GUARANTEE_HS)
    for bad in (["--method", "best"], ["--no-such-flag"]):
        refused = run_cli(*GUARANTEE_HS, *bad)
        assert (refused.returncode, refused.stdout) == (2, "")
        assert "error: " in refused.stderr
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == 1
    assert vars(parser.parse_args(GUARANTEE_HS)) == want
    assert run_cli(*GUARANTEE_HS) == first
    assert first.returncode == 0, first.stderr


def test_guarantee_closed_pure():
    r = run_cli("guarantee", "--base", "pure", "--eps-base", "1",
                "--family", "negbin", "--eta", "1", "--m", "300",
                "--method", "closed", "--delta", "1e-6")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "eps=3 delta=1e-06 method=closed eps1=nan\n"


def test_guarantee_eps_query_reports_delta():
    r = run_cli("guarantee", "--base", "gaussian", "--sigma", "4",
                "--family", "rnm", "--m", "1", "--method", "hs", "--eps", "0")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "eps=0 delta=0.197412651366 method=hs eps1=nan\n"


def test_guarantee_config_file(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "gaussian", "sigma": 4},
        "family": {"kind": "negbin", "eta": 1, "m": 300},
        "method": "hs",
    }))
    r = run_cli("guarantee", "--config", str(cfg), "--delta", "1e-6")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("eps=2.79379844666 ")


def test_empty_config_path_is_unreadable():
    # an empty path is given, not absent, so it is refused as any other
    # unreadable path is rather than read as no config
    r = run_cli("guarantee", "--config", "", "--base", "gaussian", "--sigma", "4",
                "--delta", "1e-6")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: cannot read config: ")


def test_profile_total_variation_row():
    r = run_cli("profile", "--base", "gaussian", "--sigma", "4",
                "--eps-grid", "0:0:1")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "eps,delta\n0,0.0994764496602\n"


def test_missing_target_is_config_error():
    r = run_cli("guarantee", "--base", "gaussian", "--sigma", "4",
                "--family", "negbin", "--eta", "1", "--m", "300")
    assert r.returncode == 2
    assert "target" in r.stderr


def test_both_targets_is_config_error():
    r = run_cli(*GUARANTEE_HS, "--eps", "1")
    assert r.returncode == 2


def test_delta_zero_on_divergence_path_is_config_error():
    r = run_cli("guarantee", "--base", "gaussian", "--sigma", "4",
                "--family", "negbin", "--eta", "1", "--m", "300",
                "--method", "hs", "--delta", "0")
    assert r.returncode == 2


def test_unknown_preset_is_config_error():
    r = run_cli("compare", "fig99")
    assert r.returncode == 2
    assert "fig99" in r.stderr


def test_empty_candidate_list_is_config_error(tmp_path):
    cfg = tmp_path / "adjust.json"
    cfg.write_text(json.dumps({"sigmas": []}))
    r = run_cli("adjust", "--config", str(cfg))
    assert r.returncode == 2
    # an empty flag is refused too, not replaced by the default candidates
    r = run_cli("adjust", "--sigmas=", "--q", "0.01")
    assert r.returncode == 2 and r.stdout == ""


@pytest.mark.parametrize("eps", ["inf", "-inf", "nan"])
def test_non_finite_eps_target_is_config_error(eps):
    r = run_cli("guarantee", "--base", "gaussian", "--sigma", "4", f"--eps={eps}")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: eps must be finite, got {eps}\n"


def test_unreachable_target_exit_code():
    r = run_cli("guarantee", "--base", "subsampled_gaussian", "--q", "0.2",
                "--sigma", "2", "--steps", "4", "--family", "poisson",
                "--m", "10", "--method", "hs", "--delta", "1e-30")
    assert r.returncode == 3
    assert "1e-30" in r.stderr


RNM_BILLION = ["guarantee", "--base", "gaussian", "--sigma", "1", "--family", "rnm",
               "--m", "1000000000", "--delta", "1e-6"]


def test_rnm_composition_at_the_edge_of_float_range():
    # 30 rounds: the factor 1e270 and the target 1e-276 are normal floats,
    # and the answer is sound at the exact Gaussian value, score
    # sensitivity 2 sqrt(30) over sigma 1
    r = run_cli(*RNM_BILLION, "--rounds", "30")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "eps=448.714556694 delta=1e-06 method=hs eps1=nan\n"
    r = run_cli(*RNM_BILLION, "--rounds", "30", "--format", "json")
    with mpmath.workdps(60):
        eps, s = mpmath.mpf(json.loads(r.stdout)["eps"]), 2 * mpmath.sqrt(30)
        g = mpmath.ncdf(s / 2 - eps / s) - mpmath.exp(eps) * mpmath.ncdf(-s / 2 - eps / s)
        assert 30 * mpmath.log(10**9) + mpmath.log(g) <= mpmath.log(mpmath.mpf(1e-6))
    # 34 rounds: the target 1e-312 is subnormal, where the base certifies
    # nothing; 40 rounds: the factor 1e360 overflows
    for rounds, code in (("34", 3), ("40", 2)):
        r = run_cli(*RNM_BILLION, "--rounds", rounds)
        assert r.returncode == code and r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


def test_memory_budget_exit_code():
    r = run_cli("profile", "--base", "subsampled_gaussian", "--q", "0.2",
                "--sigma", "2", "--grid-spacing", "1e-12")
    assert r.returncode == 4
    assert "budget" in r.stderr


@pytest.mark.parametrize("family", [
    ["poisson", "--m", "1e30"],
    ["poisson", "--m", "1e300"],
    ["binomial", "--n", "100000000000000000000", "--m", "1e19"],
], ids=["poisson-1e30", "poisson-1e300", "binomial-1e19"])
def test_huge_mean_is_unreachable_not_a_hang(family):
    # the Gaussian base is searched from eps = -shift, about -1e29 here,
    # where floor + 1 rounds back to floor
    r = subprocess.run(
        [sys.executable, "-m", "privsel.cli", "guarantee", "--base", "gaussian",
         "--sigma", "4", "--family", *family, "--delta", "1e-6"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == "error: profile still above delta=1e-06 at eps=10000\n"


@pytest.mark.parametrize("argv, rc, stdout", [
    (["--base", "gaussian", "--sigma", "4", "--method", "rdp", "--eps=-1e308"],
     0, "eps=-1e+308 delta=1 method=rdp eps1=nan\n"),
    (["--base", "subsampled_gaussian", "--q", "0.2", "--sigma", "2", "--method", "rdp",
      "--eps", "1e308"], 0, "eps=1e+308 delta=0 method=rdp eps1=nan\n"),
    (["--base", "gaussian", "--sigma", "4", "--family", "poisson", "--m", "1.7e308",
      "--method", "rdp", "--delta", "1e-6"], 3, ""),
], ids=["eps-minus-1e308", "subsampled-eps-1e308", "poisson-m-1.7e308"])
def test_renyi_conversion_past_the_largest_float_warns_nothing(argv, rc, stdout):
    # a product past the largest float is +-inf, which is delta 1 or 0 (or
    # an unreachable target) as it should be; under -W error a warning
    # would exit 1
    r = subprocess.run([sys.executable, "-W", "error", "-m", "privsel.cli", "guarantee",
                        *argv], capture_output=True, text=True, env=child_env())
    assert (r.returncode, r.stdout) == (rc, stdout), r.stderr
    if rc:
        assert r.stderr == "error: profile still above delta=1e-06 at eps=10000\n"
    else:
        assert r.stderr == ""


def test_compare_output_is_byte_identical(tmp_path):
    a = run_cli("compare", "fig1", "--out", "a.csv", cwd=tmp_path)
    b = run_cli("compare", "fig1", "--out", "b.csv", cwd=tmp_path)
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    ba = (tmp_path / "a.csv").read_bytes()
    assert ba == (tmp_path / "b.csv").read_bytes()
    assert ba.startswith(b"m,")


def test_fig4_writes_curve_and_count_cdf_tables(tmp_path):
    r = run_cli("compare", "fig4", "--out", "fig4.csv", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    curves = (tmp_path / "fig4.csv").read_text().splitlines()
    cdf = (tmp_path / "fig4_kcdf.csv").read_text().splitlines()
    assert curves[0] == "eps,delta_n15,delta_n20,delta_n50,delta_n1000,delta_poisson"
    assert cdf[0] == "k,cdf_n15,cdf_n20,cdf_n50,cdf_n1000,cdf_poisson"
    assert len(curves) > 2 and len(cdf) > 2


def test_adjust_row_per_candidate():
    r = run_cli("adjust", "--sigmas", "2,3")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "sigma,max_steps,eps_final,delta_final,eps_direct,gap_rel"
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("3,")


def test_oracle_suite_passes():
    r = run_cli("oracle")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().endswith("7/7 oracle checks passed")


def test_config_section_not_an_object_is_config_error(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"base": [1]}))
    r = run_cli("guarantee", "--config", str(cfg), "--delta", "1e-6")
    assert r.returncode == 2
    assert "'base' must be a JSON object" in r.stderr
    cfg.write_text(json.dumps({"base": {"kind": "gaussian", "sigma": 4},
                               "family": "negbin"}))
    r = run_cli("guarantee", "--config", str(cfg), "--delta", "1e-6")
    assert r.returncode == 2
    assert "'family' must be a JSON object" in r.stderr


def loaded_after(code):
    """Names of the modules loaded in a fresh interpreter that ran code,
    with whatever code printed before them."""
    code += "\nprint(json.dumps(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                       capture_output=True, text=True, env=child_env())
    *printed, modules = r.stdout.splitlines()
    return r, printed, set(json.loads(modules))


# no privsel module loads scipy.stats or scipy.signal (about 1 s of
# start-up together), nor scipy.integrate or scipy.optimize:
# privsel.oracles loads quadpack and Brent's method from their compiled
# extensions alone
HEAVY_SCIPY = {"scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize"}
# the extension privsel._special loads from its file, without running
# scipy's or scipy.special's package set-up
UFUNCS = "scipy.special._special_ufuncs"


def test_imports_leave_out_heavy_scipy_subpackages():
    # every module a query computes with, imported at module level, and
    # every method of the binomial and Poisson counts called
    r, printed, loaded = loaded_after(
        "import privsel, privsel.cli\n"
        "from privsel import countdist, errors, pld, presets, profiles, rnm, "
        "selection\n"
        "for d in (countdist.Binomial(20, 0.3), countdist.Poisson(4.0)):\n"
        "    print(d.pmf(3), d.pmf([0, 1]).sum(), d.mean(), d.cdf(3), "
        "d.pgf_deriv(0.5), d.support_upper())")
    assert r.returncode == 0, r.stderr
    assert len(printed) == 2
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


def test_oracle_and_fig4_leave_scipy_stats_unloaded():
    # the oracles and the fig4 count CDF table read binomial and Poisson
    # pmf, cdf and tail support, all computed with scipy's special
    # functions; fig4's binomial cdf (betainc) alone loads the package
    r, printed, loaded = loaded_after(
        "from privsel import cli\n"
        "print(cli.main(['oracle']))\n"
        "print('scipy.special' in sys.modules)\n"
        "print(cli.main(['compare', 'fig4']))\n"
        "print('scipy.special' in sys.modules)")
    assert r.returncode == 0, r.stderr
    assert printed.count("0") == 2
    assert "7/7 oracle checks passed" in printed
    assert "k,cdf_n15,cdf_n20,cdf_n50,cdf_n1000,cdf_poisson" in printed
    assert printed[printed.index("7/7 oracle checks passed") + 2] == "False"
    assert printed[-1] == "True"
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


def test_oracle_loads_quadpack_and_brent_without_their_packages():
    # a later import of either package uses the very extensions privsel read
    r, printed, _ = loaded_after(
        "from privsel import cli, oracles\nprint(cli.main(['oracle']))\n"
        "print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.special', 'numpy.ma'}"
        " & set(sys.modules)))\n"
        "quadpack = sys.modules['scipy.integrate._quadpack']\n"
        "zeros = sys.modules['scipy.optimize._zeros']\n"
        "import scipy.integrate, scipy.optimize\n"
        "from scipy.integrate import _quadpack\nfrom scipy.optimize import _zeros\n"
        "print(_quadpack is quadpack, _zeros is zeros, "
        "oracles._qagse is quadpack._qagse, oracles._brentq is zeros._brentq)\n"
        "print(scipy.integrate.quad(lambda x: x, 0, 1)[0], "
        "scipy.optimize.brentq(lambda x: x - 0.5, 0, 1))")
    assert r.returncode == 0, r.stderr
    assert printed[-4:] == ["0", "[]", "True True True True", "0.5 0.5"]
    assert printed[-5] == "7/7 oracle checks passed"


def test_oracle_falls_back_to_the_scipy_integrate_and_optimize_packages():
    # where the extensions cannot be found, as on older scipy releases
    r, printed, _ = loaded_after(
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: "
        "None if name == 'scipy' else find_spec(name, *a)\n"
        "from privsel import cli, oracles\nimport scipy.integrate, scipy.optimize\n"
        "print(oracles.quad is scipy.integrate.quad, "
        "oracles.brentq is scipy.optimize.brentq)\n"
        "print(cli.main(['oracle']))")
    assert r.returncode == 0, r.stderr
    assert printed[0] == "True True"
    assert printed[-2:] == ["7/7 oracle checks passed", "0"]


def test_package_and_cli_load_numpy_alone():
    # every CLI call pays its imports: the package and the CLI load numpy
    # alone, and each command imports what it computes with
    r, _, loaded = loaded_after("import privsel, privsel.cli")
    assert r.returncode == 0, r.stderr
    assert "numpy" in loaded
    scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))
    assert not scipy, scipy


# each config error: the call, an optional --config file's contents, and
# the one line it prints on stderr
CONFIG_ERRORS = {
    "missing-target": (GUARANTEE_HS[:-2], None, "error: give a target: --delta or --eps"),
    "sigma-nan": (["guarantee", "--base", "gaussian", "--sigma", "nan", "--family", "negbin",
                   "--m", "300", "--delta", "1e-6"], None,
                  "error: sigma must be finite, got nan"),
    "config-base-list": (["guarantee", "--delta", "1e-6"], {"base": [1]},
                         "error: config 'base' must be a JSON object, got list"),
    "subsampled-method": (["guarantee", "--base", "subsampled_gaussian", "--q", "0.1",
                           "--sigma", "1", "--family", "binomial", "--n", "5", "--p", "0.5",
                           "--method", "rdp", "--delta", "1e-6"], None,
                          "error: method 'rdp' is not available for binomial, choose from hs"),
    "binomial-n-fraction": (["guarantee", "--base", "gaussian", "--sigma", "4", "--family",
                             "binomial", "--n", "2.5", "--p", "0.1", "--delta", "1e-6"], None,
                            "error: n must be an integer, got 2.5"),
    "rnm-rounds-zero": (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "rnm",
                         "--m", "10", "--rounds", "0", "--delta", "1e-6"], None,
                        "error: rounds must be >= 1, got 0"),
    "config-monotone-yes": (["guarantee", "--delta", "1e-6"],
                            {"base": {"kind": "gaussian", "sigma": 4},
                             "family": {"kind": "rnm", "m": 10, "monotone": "yes"}},
                            "error: monotone must be true or false, got 'yes'"),
    "poisson-m-abc": (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "poisson",
                       "--m", "abc", "--delta", "1e-6"], None,
                      "error: m must be a number, got 'abc'"),
    # the loss grid is built only once the family fields are read
    "poisson-m-abc-grid": (["guarantee", "--base", "subsampled_gaussian", "--q", "0.1",
                            "--sigma", "1", "--family", "poisson", "--m", "abc",
                            "--grid-spacing", "1e-3", "--delta", "1e-6"], None,
                           "error: m must be a number, got 'abc'"),
    "profile-eps-grid": (["profile", "--base", "gaussian", "--sigma", "4", "--eps-grid", "abc"],
                         None, "error: bad eps grid 'abc', want lo:hi:step"),
    # values out of the library's range, refused before a Gaussian is built
    "poisson-m-zero": (["guarantee", "--base", "gaussian", "--sigma", "4", "--family",
                        "poisson", "--m", "0", "--delta", "1e-6"], None,
                       "error: mean m must be positive, got 0.0"),
    # each named by the field the user typed beside the library's name for it
    **{f"count-{name}": (["guarantee", "--base", "gaussian", "--sigma", "4",
                          "--family", *family, "--delta", "1e-6"], None, f"error: {message}")
       for name, family, message in (
           ("negbin-eta", ["negbin", "--eta", "-2", "--gamma", "0.1"],
            "shape eta must exceed -1, got -2.0"),
           ("negbin-eta-m", ["negbin", "--eta", "-2", "--m", "10"],
            "shape eta must exceed -1, got -2.0"),
           ("negbin-gamma", ["negbin", "--gamma", "1.5"],
            "success gamma must be in (0,1), got 1.5"),
           ("negbin-m", ["negbin", "--m", "-1"], "mean m must be positive, got -1.0"),
           ("binomial-p", ["binomial", "--n", "10", "--p", "1.5"],
            "prob p must be in (0,1), got 1.5"),
           ("binomial-m", ["binomial", "--n", "10", "--m", "0"],
            "mean m must be positive, got 0.0"))},
    # a points list of the wrong shape gets one message naming the field and its shape
    **{f"points-{name}": (["guarantee", "--delta", "1e-6"], {"base": {"kind": "points", **base}},
                          "error: bad points list: points must be a list of [eps, delta] "
                          f"pairs, got {got}")
       for name, base, got in (
           ("missing", {}, "None"),
           ("number", {"points": 5}, "5"),
           ("string", {"points": "ab"}, "'ab'"),
           ("short-pair", {"points": [[1.0]]}, "[[1.0]]"),
           ("long-pair", {"points": [[0.5, 1e-3], [1.0, 1e-4, 0.0]]},
            "[[0.5, 0.001], [1.0, 0.0001, 0.0]]"),
           ("bare-entry", {"points": [5]}, "[5]"))},
    # the pure base checks its eps itself, so every method and command says the same
    "pure-eps-negative": (["guarantee", "--base", "pure", "--eps-base", "-1", "--delta", "1e-6"],
                          None, "error: pure base needs eps >= 0, got -1.0"),
    "pure-eps-negative-closed": (["guarantee", "--base", "pure", "--eps-base", "-1", "--family",
                                  "negbin", "--m", "10", "--method", "closed", "--delta", "1e-6"],
                                 None, "error: pure base needs eps >= 0, got -1.0"),
    "pure-eps-negative-profile": (["profile", "--base", "pure", "--eps-base", "-1"], None,
                                  "error: pure base needs eps >= 0, got -1.0"),
    "rnm-m-zero": (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "rnm",
                    "--m", "0", "--delta", "1e-6"], None, "error: m must be >= 1, got 0"),
    "pure-rdp": (["guarantee", "--base", "pure", "--eps-base", "1", "--method", "rdp",
                  "--delta", "1e-6"], None,
                 "error: method rdp needs a gaussian or subsampled_gaussian base"),
    # a key the command does not read
    "unread-config-key": (["guarantee", "--delta", "1e-6"],
                          {"base": {"kind": "gaussian", "sigma": 4},
                           "family": {"kind": "negbin", "m": 300}, "metod": "rdp"},
                          "error: guarantee config does not read metod; "
                          "its keys are base, family, method"),
}


@pytest.fixture(scope="module")
def config_error_calls(tmp_path_factory):
    """Every call of CONFIG_ERRORS, in turn, in one fresh interpreter: by
    name, its exit code, its stdout and stderr, and whether scipy was
    loaded after it.  The set of loaded modules only grows, so a call
    that loads scipy shows it at that call, as it would alone."""
    configs = tmp_path_factory.mktemp("configs")
    calls = {}
    for name, (argv, config, _) in CONFIG_ERRORS.items():
        if config is not None:
            cfg = configs / f"{name}.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        calls[name] = argv
    r, printed, _ = loaded_after(
        "import contextlib, io\nfrom privsel import cli\n"
        f"for name, argv in {calls!r}.items():\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        rc = cli.main(argv)\n"
        "    print(json.dumps([name, rc, out.getvalue(), err.getvalue(), "
        "'scipy' in sys.modules]))")
    assert (r.returncode, r.stderr) == (0, "")
    results = {}
    for line in printed:
        name, *result = json.loads(line)
        results[name] = result
    assert list(results) == list(CONFIG_ERRORS)
    return results


def assert_refused_before_scipy(name, calls):
    rc, out, err, scipy_loaded = calls[name]
    assert (rc, out) == (2, ""), err
    assert err == CONFIG_ERRORS[name][2] + "\n"
    assert not scipy_loaded


@pytest.mark.parametrize("name", [n for n in CONFIG_ERRORS if n != "unread-config-key"])
def test_config_errors_exit_before_scipy_loads(name, config_error_calls):
    assert_refused_before_scipy(name, config_error_calls)


def test_unread_config_key_exits_before_scipy_loads(config_error_calls):
    assert_refused_before_scipy("unread-config-key", config_error_calls)


NEGBIN_30 = ["--family", "negbin", "--eta", "1", "--m", "30"]


# a pure or points base, or rdp on a Gaussian base, needs no special
# function: these calls load numpy alone
@pytest.mark.parametrize("argv,config,rc,line", [
    (["guarantee", "--base", "gaussian", "--sigma", "4", *NEGBIN_30, "--method", "rdp",
      "--delta", "1e-6"], None, 0, "method=rdp eps1=nan"),
    (["guarantee", "--base", "pure", "--eps-base", "1", *NEGBIN_30, "--method", "closed",
      "--delta", "1e-6"], None, 0, "method=closed eps1=nan"),
    (["guarantee", *NEGBIN_30, "--delta", "1e-6"],
     {"base": {"kind": "points", "points": [[0.5, 1e-7], [1.0, 1e-9]]}}, 0, "method=hs"),
    # every point's delta sits far above the target
    (["guarantee", *NEGBIN_30, "--delta", "1e-6"],
     {"base": {"kind": "points", "points": [[1.0, 0.01], [3.0, 0.005]]}}, 3,
     "error: profile still above delta=1e-06"),
], ids=["gaussian-negbin-rdp", "pure-closed", "points-hs", "points-unreachable"])
def test_calls_off_the_gaussian_leaf_load_numpy_alone(argv, config, rc, line, tmp_path):
    if config is not None:
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main({argv!r}))")
    assert printed[-1] == str(rc), r.stderr
    if rc == 0:
        assert printed[0].startswith("eps=") and line in printed[0]
        assert r.stderr == ""
    else:
        assert printed == [str(rc)]
        assert r.stderr.startswith(line)
    assert "numpy" in loaded
    scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))
    assert not scipy, scipy


SUBSAMPLED_NEGBIN = ["guarantee", "--base", "subsampled_gaussian", "--q", "0.2",
                     "--sigma", "1", "--steps", "4", *NEGBIN_30, "--delta", "1e-6"]


def test_warm_pld_cache_call_loads_no_scipy(tmp_path):
    # scipy.special's compiled ndtr builds the grids of the cold call,
    # without the package; the warm call reads both composed distributions
    # from the cache and computes on numpy alone
    code = (f"import os\nos.environ['PRIVSEL_PLD_CACHE'] = {str(tmp_path)!r}\n"
            f"from privsel import cli\nprint(cli.main({SUBSAMPLED_NEGBIN!r}))")
    r, cold, loaded = loaded_after(code)
    assert cold[-1] == "0", r.stderr
    assert cold[0].startswith("eps=") and "method=hs" in cold[0]
    assert UFUNCS in loaded
    assert "scipy.special" not in loaded
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)
    assert len(list(tmp_path.glob("pld_*.npz"))) == 2

    r, warm, loaded = loaded_after(code)
    assert warm == cold, r.stderr
    assert "scipy" not in loaded


def test_grid_past_its_cell_budget_is_refused_before_scipy_loads():
    argv = ["guarantee", "--base", "subsampled_gaussian", "--q", "0.01", "--sigma", "1",
            "--grid-spacing", "1e-10", "--delta", "1e-6"]
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main({argv!r}))")
    assert printed == ["4"], r.stderr
    assert r.stderr == "error: loss grid needs 40342327838 cells, budget is 268435456\n"
    assert "scipy" not in loaded


@pytest.mark.parametrize("module", ["privsel.gaussian", "privsel.rnm", "privsel.presets"])
def test_the_gaussian_leaf_and_its_importers_load_scipy_special(module):
    # scipy.special's compiled ufuncs, without the package's set-up; pld,
    # which presets imports, runs its worker on threading alone and
    # imports hashlib only to name a cache file
    r, _, loaded = loaded_after(f"import {module}")
    assert r.returncode == 0, r.stderr
    assert UFUNCS in loaded
    assert "scipy.special" not in loaded
    assert not loaded & {"concurrent.futures", "logging", "hashlib"}


def test_gaussian_guarantee_leaves_the_scipy_special_package_unloaded():
    # a later import of the package re-exports the very ufuncs privsel
    # read; the eps1 candidates are deduplicated without numpy.ma
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main({GUARANTEE_HS!r}))\n"
        "print('scipy.special' in sys.modules, 'numpy.ma' in sys.modules)\n"
        "import scipy.special, scipy.stats\nfrom privsel import _special\n"
        "print([getattr(scipy.special, n) is getattr(_special, n) "
        "for n in _special.NAMES])")
    assert r.returncode == 0, r.stderr
    assert printed == ["eps=2.79379844666 delta=1e-06 method=hs eps1=0.646736322261",
                       "0", "False False", str([True] * 7)]
    assert UFUNCS in loaded


def test_special_functions_fall_back_to_the_scipy_special_package():
    # where the extension cannot be found, as on older scipy releases
    r, printed, loaded = loaded_after(
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: "
        "None if name == 'scipy' else find_spec(name, *a)\n"
        "from privsel import _special\nimport scipy.special\n"
        "print([getattr(scipy.special, n) is getattr(_special, n) "
        "for n in _special.NAMES])")
    assert r.returncode == 0, r.stderr
    assert printed == [str([True] * 7)]
    assert "scipy.special" in loaded


@pytest.mark.parametrize("table", ["fig6", "fig7"])
def test_dpsgd_tables_leave_the_scipy_special_package_unloaded(table):
    # their grids and Renyi moments read the compiled ufuncs alone, and
    # their eps1 candidates and count ladders are deduplicated without
    # numpy.ma
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main(['compare', {table!r}]))")
    assert r.returncode == 0, r.stderr
    assert printed[-1] == "0"
    assert not loaded & {"scipy.special", "numpy.ma"}


def test_oracles_load_neither_the_bounds_nor_the_cli():
    # the density code is independent of the bounds it checks; the
    # validation rows import profiles only when they are built
    r, _, loaded = loaded_after("import privsel.oracles")
    assert r.returncode == 0, r.stderr
    assert not loaded & {"privsel.profiles", "privsel.selection", "privsel.pld",
                         "privsel.cli"}


def test_gaussian_guarantee_leaves_the_loss_grid_unloaded():
    # a Gaussian base needs no privacy-loss distribution, so neither pld
    # nor scipy.fft
    r, printed, loaded = loaded_after(
        f"from privsel import cli\ncli.main({GUARANTEE_HS!r})")
    assert r.returncode == 0, r.stderr
    assert printed == ["eps=2.79379844666 delta=1e-06 "
                       "method=hs eps1=0.646736322261"]
    assert not loaded & {"privsel.pld", "scipy.fft"}
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


def test_subsampled_profile_leaves_out_heavy_scipy_subpackages():
    # a subsampled base builds its loss grid with scipy.special's ndtr and
    # convolves it with numpy.fft
    r, printed, loaded = loaded_after(
        "from privsel import cli\n"
        "cli.main(['profile', '--base', 'subsampled_gaussian', '--q', '0.2', "
        "'--sigma', '2', '--eps-grid', '0:1:1'])")
    assert r.returncode == 0, r.stderr
    assert printed[0] == "eps,delta" and len(printed) == 3
    assert "privsel.pld" in loaded
    assert "scipy.fft" not in loaded
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


def test_subsampled_renyi_curve_leaves_scipy_integrate_unloaded():
    # the Renyi baseline of a subsampled base is summed and integrated in
    # numpy; scipy.integrate alone costs about 0.2 s on a cold start
    code = ("import sys; from privsel import presets; "
            "from privsel.pld import SubsampledGaussianParams; "
            "presets.subsampled_rdp_curve("
            "SubsampledGaussianParams(0.01, 1.0, 10)); "
            "print('scipy.integrate' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_subsampled_renyi_query_leaves_presets_unloaded():
    # the Renyi curve of a subsampled base lives in pld; presets is read
    # only by compare and adjust
    r, printed, loaded = loaded_after(
        "from privsel import cli\n"
        "cli.main(['guarantee', '--base', 'subsampled_gaussian', '--q', '0.01', "
        "'--sigma', '1', '--steps', '100', '--method', 'rdp', '--delta', '1e-6'])")
    assert r.returncode == 0, r.stderr
    assert printed[0].startswith("eps=") and printed[0].endswith("method=rdp eps1=nan")
    assert "privsel.presets" not in loaded
