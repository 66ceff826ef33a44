"""One fresh-interpreter pass of a workload; started by run.py.

Usage: python child.py SPEC.json RESULT.json

SPEC names the workload, the privsel modules to import, the mode and the
inputs. The child times the import (set-up), then, in "pass" and
"replay" modes, the workload's calls into privsel, and writes timings,
outputs and the outcome of checks that need live privsel objects to
RESULT. With "probe" set, the speed probe samples the machine during
the pass and its time is left out of every measured interval; with
"trace" set, the calls run under the per-layer tracer instead.
"""

import json
import sys
import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def _setup(spec):
    for name in spec["imports"]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - T0
    src = spec["src"]
    pkg = sys.modules["privsel"].__file__
    if not os.path.abspath(pkg).startswith(src + os.sep):
        raise SystemExit(f"privsel imported from {pkg}, not from {src}")
    versions = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": importlib.import_module("scipy").__version__,
    }
    return setup_s, versions


def run_dpsgd(inputs, clock):
    from privsel import presets

    tables = []
    start = clock()
    for name in inputs["tables"]:
        header, rows = getattr(presets, name)()
        tables.append({"name": name, "header": list(header),
                       "rows": [list(map(float, r)) for r in rows]})
    end = clock()
    return {"span": (start, end), "requests": [(start, end)], "outputs": tables}


def run_step_search(inputs, clock):
    from privsel import presets

    rows, requests = [], []
    start = clock()
    for call in inputs["calls"]:
        t = clock()
        _, out = presets.fig8_adjust_table(q=call["q"], sigmas=(call["sigma"],))
        requests.append((t, clock()))
        rows.append([float(v) for v in out[0]])
    return {"span": (start, clock()), "requests": requests, "outputs": rows}


def _bulk_query(q, api):
    """Run one bulk query; returns (eps, profile the eps was read off)."""
    prof, sel, rnm, cd = api
    delta = q["delta"]
    kind = q["kind"]
    if kind == "negbin-hs":
        gamma = cd.from_expected("negbin", q["m"], shape=q["eta"]).success
        res = sel.select_negbin_profile(prof.gaussian_profile(q["sigma"]),
                                        q["eta"], gamma)
        profile = res.profile
    elif kind == "negbin-rdp":
        gamma = cd.from_expected("negbin", q["m"], shape=q["eta"]).success
        curve = sel.rdp_select_negbin(prof.gaussian_rdp_curve(q["sigma"]),
                                      q["eta"], gamma)
        profile = prof.rdp_profile(curve)
    elif kind == "binomial-hs":
        res = sel.select_binomial_profile(prof.gaussian_profile(q["sigma"]),
                                          q["n"], q["m"] / q["n"])
        profile = res.profile
    elif kind == "poisson-hs":
        res = sel.select_poisson_profile(prof.gaussian_profile(q["sigma"]), q["m"])
        profile = res.profile
    elif kind == "rnm-hs":
        r, c = q["rounds"], q["candidates"]
        if r == 1:
            profile = rnm.rnm_profile(prof.gaussian_profile(q["sigma"], 2.0), c)
        else:
            comp = prof.gaussian_profile(q["sigma"], 2.0 * math.sqrt(r))
            profile = rnm.rnm_composition_profile(comp, c, r)
    elif kind == "points-negbin-hs":
        gamma = cd.from_expected("negbin", q["m"], shape=q["eta"]).success
        base = prof.profile_from_points([tuple(p) for p in q["points"]])
        profile = sel.select_negbin_profile(base, q["eta"], gamma).profile
    else:
        raise ValueError(f"unknown bulk query kind {kind!r}")
    return prof.epsilon_for_delta(profile, delta), profile


def run_bulk(inputs, clock):
    from privsel import countdist, profiles, rnm, selection

    api = (profiles, selection, rnm, countdist)
    eps, profiles_used, requests = [], [], []
    start = clock()
    for q in inputs["queries"]:
        t = clock()
        e, p = _bulk_query(q, api)
        requests.append((t, clock()))
        eps.append(e)
        profiles_used.append(p)
    return {"span": (start, clock()), "requests": requests, "outputs": eps,
            "profiles": profiles_used}


def check_bulk(queries, eps, profiles_used):
    """Invariants of every bulk answer; returns indices of failed queries."""
    from checks import EPS_TOL
    from privsel import rnm, selection
    from privsel.countdist import from_expected

    failed = set()
    by_instance = {}
    for i, (q, e, p) in enumerate(zip(queries, eps, profiles_used)):
        by_instance.setdefault(q["instance"], {})[q["kind"]] = (i, e)
        if not math.isfinite(e) or e < 0:
            failed.add(i)
            continue
        d = p(e)
        if not (0.0 <= d <= 1.0 and d <= q["delta"]):
            failed.add(i)
    for group in by_instance.values():
        q = queries[group["negbin-hs"][0]]
        i, hs = group["negbin-hs"]
        gamma = from_expected("negbin", q["m"], shape=q["eta"]).success
        closed = selection.select_gdp_eps(q["sigma"], q["eta"], gamma, q["delta"])
        if hs > group["negbin-rdp"][1] + EPS_TOL or hs > closed + EPS_TOL:
            failed.add(i)
        j, hs_rnm = group["rnm-hs"]
        qr = queries[j]
        if qr["rounds"] == 1:
            closed = rnm.rnm_gaussian_eps(qr["sigma"], qr["candidates"], qr["delta"])
            if hs_rnm > closed + EPS_TOL:
                failed.add(j)
    return sorted(failed)


def _reset_process_caches():
    """Empty privsel's in-process caches, so each replayed call starts as
    cold as a fresh `privsel` process (the disk cache is kept)."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("privsel"):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        composed = getattr(mod, "_COMPOSED", None)
        if isinstance(composed, dict):
            composed.clear()


def run_cli_replay(inputs, clock):
    from privsel import cli

    results, requests = [], []
    start = clock()
    for call in inputs["calls"]:
        _reset_process_caches()
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(call["argv"])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # an uncaught traceback exits 1
                rc = 1
        requests.append((t, clock()))
        results.append({"rc": rc, "stdout": out.getvalue()})
    return {"span": (start, clock()), "requests": requests, "outputs": results}


def timings(out, timeline=None):
    """Turn a runner's clock intervals into wall and request times: raw,
    and in reference seconds when a timeline of probes is given."""
    (a, b), requests = out.pop("span"), out.pop("requests")
    out["raw_wall_s"] = b - a
    out["raw_latencies"] = [y - x for x, y in requests]
    if timeline is None:
        out["wall_s"], out["latencies"] = out["raw_wall_s"], out["raw_latencies"]
    else:
        out["wall_s"] = timeline.scaled(a, b)
        out["latencies"] = [timeline.scaled(x, y) for x, y in requests]
    return out


RUNNERS = {
    "dpsgd-tables": run_dpsgd,
    "step-search": run_step_search,
    "bulk-queries": run_bulk,
    "cli-query": run_cli_replay,
}


def run_pass(spec):
    """Run the workload once; with "probe", in reference seconds, else
    raw and, with "trace", under the tracer."""
    runner = RUNNERS[spec["workload"]]
    if spec["probe"]:
        import speed

        with speed.Sampler() as sampler:
            out = runner(spec["inputs"], sampler.clock)
        return timings(out, sampler)
    if not spec["trace"]:
        return timings(runner(spec["inputs"], time.perf_counter))
    from tracing import Tracer

    with Tracer() as tracer:
        out = timings(runner(spec["inputs"], time.perf_counter))
    out["layers"] = tracer.layer_metrics(out["wall_s"])
    out["trace_notes"] = tracer.notes
    with open(spec["trace_out"], "w") as f:
        json.dump({"spans": [s for s in tracer.spans if s is not None],
                   "stats": tracer.stats}, f)
    return out


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    setup_s, versions = _setup(spec)
    result = {"raw_setup_s": setup_s, "versions": versions}
    if spec["mode"] != "setup":
        result.update(run_pass(spec))
    if spec["workload"] == "bulk-queries" and "outputs" in result:
        result["failures"] = check_bulk(spec["inputs"]["queries"],
                                        result["outputs"], result.pop("profiles"))
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
