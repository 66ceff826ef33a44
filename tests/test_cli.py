"""End-to-end tests of the command-line interface via subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

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


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "privsel.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def test_guarantee_hs_line():
    r = run_cli(*GUARANTEE_HS)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ("eps=2.79379844666 delta=1e-06 "
                        "method=hs eps1=0.646736173553\n")


def test_guarantee_json():
    r = run_cli(*GUARANTEE_HS, "--format", "json")
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    assert got == {"eps": 2.7937984466552734, "delta": 1e-06,
                   "method": "hs", "eps1": 0.6467361735528931}


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
# start-up together); scipy.integrate and scipy.optimize load only with
# privsel.oracles
HEAVY_SCIPY = {"scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize"}


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
    # pmf, cdf and tail support, all computed with scipy.special
    r, printed, loaded = loaded_after(
        "from privsel import cli\n"
        "print(cli.main(['oracle']))\n"
        "print(cli.main(['compare', 'fig4']))")
    assert r.returncode == 0, r.stderr
    assert printed.count("0") == 2
    assert "7/7 oracle checks passed" in printed
    assert "k,cdf_n15,cdf_n20,cdf_n50,cdf_n1000,cdf_poisson" in printed
    assert "scipy.stats" not in loaded


def test_package_and_cli_load_numpy_alone():
    # every CLI call pays its imports: the package and the CLI load numpy
    # alone, and each command imports what it computes with
    r, _, loaded = loaded_after("import privsel, privsel.cli")
    assert r.returncode == 0, r.stderr
    assert "numpy" in loaded
    scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))
    assert not scipy, scipy


@pytest.mark.parametrize("argv,config,message", [
    (GUARANTEE_HS[:-2], None, "error: give a target: --delta or --eps"),
    (["guarantee", "--base", "gaussian", "--sigma", "nan", "--family", "negbin",
      "--m", "300", "--delta", "1e-6"], None, "error: sigma must be finite, got nan"),
    (["guarantee", "--delta", "1e-6"], {"base": [1]},
     "error: config 'base' must be a JSON object, got list"),
    (["guarantee", "--base", "subsampled_gaussian", "--q", "0.1", "--sigma", "1",
      "--family", "binomial", "--n", "5", "--p", "0.5", "--method", "rdp",
      "--delta", "1e-6"], None,
     "error: method 'rdp' is not available for binomial, choose from hs"),
    (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "binomial",
      "--n", "2.5", "--p", "0.1", "--delta", "1e-6"], None,
     "error: n must be an integer, got 2.5"),
    (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "rnm",
      "--m", "10", "--rounds", "0", "--delta", "1e-6"], None,
     "error: rounds must be >= 1, got 0"),
    (["guarantee", "--delta", "1e-6"],
     {"base": {"kind": "gaussian", "sigma": 4},
      "family": {"kind": "rnm", "m": 10, "monotone": "yes"}},
     "error: monotone must be true or false, got 'yes'"),
    (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "poisson",
      "--m", "abc", "--delta", "1e-6"], None, "error: m must be a number, got 'abc'"),
    # the loss grid is built only once the family fields are read
    (["guarantee", "--base", "subsampled_gaussian", "--q", "0.1", "--sigma", "1",
      "--family", "poisson", "--m", "abc", "--grid-spacing", "1e-3", "--delta", "1e-6"],
     None, "error: m must be a number, got 'abc'"),
    (["profile", "--base", "gaussian", "--sigma", "4", "--eps-grid", "abc"], None,
     "error: bad eps grid 'abc', want lo:hi:step"),
    # values out of the library's range, refused before a Gaussian is built
    (["guarantee", "--base", "gaussian", "--sigma", "4", "--family", "poisson", "--m", "0",
      "--delta", "1e-6"], None, "error: mean must be positive, got 0.0"),
    (["guarantee", "--base", "pure", "--eps-base", "-1", "--delta", "1e-6"], None,
     "error: points need finite eps >= 0 and delta in [0,1], got [(-1.0, 0.0)]"),
    (["guarantee", "--base", "pure", "--eps-base", "1", "--method", "rdp", "--delta", "1e-6"],
     None, "error: method rdp needs a gaussian or subsampled_gaussian base"),
], ids=["missing-target", "sigma-nan", "config-base-list", "subsampled-method",
        "binomial-n-fraction", "rnm-rounds-zero", "config-monotone-yes", "poisson-m-abc",
        "poisson-m-abc-grid", "profile-eps-grid", "poisson-m-zero", "pure-eps-negative",
        "pure-rdp"])
def test_config_errors_exit_before_scipy_loads(argv, config, message, tmp_path):
    if config is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main({argv!r}))")
    assert printed == ["2"], r.stderr
    assert r.stderr == message + "\n"
    assert "scipy" not in loaded


def test_unread_config_key_exits_before_scipy_loads(tmp_path):
    cfg = tmp_path / "metod.json"
    cfg.write_text(json.dumps({"base": {"kind": "gaussian", "sigma": 4},
                               "family": {"kind": "negbin", "m": 300},
                               "metod": "rdp"}))
    argv = ["guarantee", "--config", str(cfg), "--delta", "1e-6"]
    r, printed, loaded = loaded_after(
        f"from privsel import cli\nprint(cli.main({argv!r}))")
    assert printed == ["2"], r.stderr
    assert r.stderr == ("error: guarantee config does not read metod; "
                        "its keys are base, family, method\n")
    assert "scipy" not in loaded


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


@pytest.mark.parametrize("module", ["privsel.gaussian", "privsel.rnm", "privsel.presets"])
def test_the_gaussian_leaf_and_its_importers_load_scipy_special(module):
    r, _, loaded = loaded_after(f"import {module}")
    assert r.returncode == 0, r.stderr
    assert "scipy.special" in loaded


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
                       "method=hs eps1=0.646736173553"]
    assert not loaded & {"privsel.pld", "scipy.fft"}
    assert not loaded & HEAVY_SCIPY, sorted(loaded & HEAVY_SCIPY)


def test_subsampled_profile_leaves_out_heavy_scipy_subpackages():
    # a subsampled base builds its loss grid with scipy.special and
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
