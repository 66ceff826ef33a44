"""privsel benchmark: cold CLI queries, DP-SGD tables, step searches and
bulk selection queries, with a separate per-layer traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-query, dpsgd-tables, step-search, bulk-queries.
Every pass runs in a fresh interpreter, one process at a time, so
privsel's process caches start empty as they do for each real call.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it restate the metrics with
their units. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import speed
import workloads
from tracing import parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_SETUP_SAMPLES = 3
# CLI calls between two import probes in a cli-query pass
PROBE_EVERY = 2
CHILD_TIMEOUT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A child failed to run; the benchmark prints no result."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(pld_cache=None):
    """Environment of every child: the absolute src path first on
    PYTHONPATH, thread pools capped at nproc, and PRIVSEL_PLD_CACHE set
    only where a workload asks for a fresh cache directory."""
    env = dict(os.environ)
    env.pop("PRIVSEL_PLD_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    if pld_cache:
        env["PRIVSEL_PLD_CACHE"] = pld_cache
    return env


def spawn(argv, cwd, env, deadline):
    """Run one child to completion (killed and reaped at the deadline)."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(argv)[:120]}") from e


class Run:
    """One benchmark run: a work directory, a deadline and the children."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.inputs = workloads.GENERATORS[workload](seed)
        self.work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        self._n = 0
        # import probes: at the start and the end of a measured run, and
        # after every PROBE_EVERY-th CLI call
        self.imports = speed.Timeline(probe=lambda: speed.import_probe(child_env()),
                                      reference=speed.REFERENCE_IMPORT_S)

    def spans_file(self):
        return os.path.join(TRACE_DIR, f"{self.workload}-seed{self.seed}.json")

    def fresh_dir(self, stem):
        self._n += 1
        path = os.path.join(self.work, f"{stem}{self._n}")
        os.makedirs(path)
        return path

    def child(self, mode, trace=False, probe=False, pld_cache=None):
        """Run child.py once; returns its result dict, with the span of
        the child on the parent's clock. With `probe`, the child scales its
        pass by the in-process probe."""
        d = self.fresh_dir(mode)
        spec = {"workload": self.workload, "mode": mode, "trace": trace, "probe": probe,
                "imports": list(workloads.IMPORTS[self.workload]),
                "src": SRC, "inputs": self.inputs, "trace_out": self.spans_file()}
        spec_path, result_path = os.path.join(d, "spec.json"), os.path.join(d, "result.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        self._write_files(d)
        t = time.perf_counter()
        p = spawn([sys.executable, CHILD, spec_path, result_path], d,
                  child_env(pld_cache), self.deadline)
        span = (t, time.perf_counter())
        if p.returncode != 0:
            raise BenchError(f"{mode} child exited {p.returncode}: {p.stderr.strip()[-800:]}")
        with open(result_path) as f:
            return dict(json.load(f), span=span)

    def _write_files(self, d):
        for name, text in self.inputs.get("files", {}).items():
            with open(os.path.join(d, name), "w") as f:
                f.write(text)

    def cli_pass(self):
        """One pass of `python -m privsel.cli` calls, in order, sharing a
        fresh PLD cache directory. Each call is scaled by the import probes
        on either side of it, taken after every PROBE_EVERY-th call."""
        d = self.fresh_dir("cli")
        self._write_files(d)
        env = child_env(pld_cache=os.path.join(d, "pld_cache"))
        outputs, spans = [], []
        calls = self.inputs["calls"]
        for i, call in enumerate(calls, 1):
            t = time.perf_counter()
            p = spawn([sys.executable, "-m", "privsel.cli", *call["argv"]], d, env,
                      self.deadline)
            spans.append((t, time.perf_counter()))
            outputs.append({"rc": p.returncode, "stdout": p.stdout})
            if i % PROBE_EVERY == 0 or i == len(calls):
                self.imports.sample()
        raw = [b - a for a, b in spans]
        latencies = [self.imports.scaled(a, b) for a, b in spans]
        return {"wall_s": sum(latencies), "latencies": latencies,
                "raw_wall_s": sum(raw), "raw_latencies": raw, "outputs": outputs}

    def measured_pass(self):
        if self.workload == "cli-query":
            return self.cli_pass()
        return self.child("pass", probe=True)

    def failures(self, result, ref):
        """Failed output labels of one pass, checked against the reference
        outputs `ref` (or invariants only, when None), and the number of
        outputs."""
        out = result["outputs"]
        if self.workload == "cli-query":
            return checks.check_cli(self.inputs["calls"], out, ref), len(out)
        if self.workload == "dpsgd-tables":
            return checks.check_tables(out, ref), checks.table_outputs(out)
        if self.workload == "step-search":
            return checks.check_steps(self.inputs["calls"], out, ref), len(out)
        return (checks.check_bulk(self.inputs["queries"], out, ref,
                                  result["failures"]), len(out))


def tail(latencies):
    """(value, label): the highest percentile with at least ten samples
    beyond it; a ladder percentile when there are 20 samples or more, and
    the maximum when there are no more than 10."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return xs[math.ceil(p / 100 * n) - 1], f"p{p:g} of {n}"
    if n > 10:
        return xs[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"
    return xs[-1], f"max of {n}"


def build():
    """Byte-compile privsel once, so no measured import compiles sources."""
    p = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"compileall failed: {p.stdout[-400:]}{p.stderr[-400:]}")


def measure(run, seconds):
    """Untraced passes for `seconds`, plus set-up samples; end-to-end
    metrics in reference seconds (see speed.py), and the raw medians.
    Set-up and every CLI call are scaled by the import probes around them;
    the other workloads' passes scale themselves."""
    run.imports.sample()
    n_passes = max(1, round(seconds / workloads.PASS_SECONDS[run.workload]))
    passes = [run.measured_pass() for _ in range(n_passes)]
    setups = [p for p in passes if "raw_setup_s" in p]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run.child("setup"))
    run.imports.sample()
    for p in setups:
        a, b = p["span"]
        p["setup_s"] = p["raw_setup_s"] * run.imports.scaled(a, b) / (b - a)
    latencies = [x for p in passes for x in p["latencies"]]
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        # the largest child this run started (every pass ran in a child)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    raw = {"setup_s": statistics.median(p["raw_setup_s"] for p in setups),
           "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
           "latency_p50_s": statistics.median(
               x for p in passes for x in p["raw_latencies"])}
    raw["import_probe_s"] = statistics.median(run.imports.samples)
    notes = {"passes": len(passes), "setup_samples": len(setups),
             "import_probes": len(run.imports.samples),
             "latency_samples": len(latencies), "latency_tail": tail_label,
             "raw": ",".join(f"{k}={v:.6g}" for k, v in raw.items())}
    return metrics, passes, setups[0]["versions"], notes


def measure_traced(run):
    """Import profile, one untraced and one traced pass; per-layer metrics."""
    mods = "; ".join(f"import {m}" for m in workloads.IMPORTS[run.workload])
    p = spawn([sys.executable, "-X", "importtime", "-c", mods], run.work,
              child_env(), run.deadline)
    if p.returncode != 0:
        raise BenchError(f"import failed: {p.stderr.strip()[-800:]}")
    cache = run.workload == "cli-query"
    plain = run.child("replay" if cache else "pass",
                      pld_cache=run.fresh_dir("cache") if cache else None)
    traced = run.child("replay" if cache else "pass", trace=True,
                       pld_cache=run.fresh_dir("cache") if cache else None)
    metrics = dict(traced["layers"])
    metrics.update(parse_importtime(p.stderr))
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    notes = {"untraced_wall_s": plain["wall_s"], "trace_notes": traced["trace_notes"],
             "spans_file": os.path.relpath(run.spans_file(), ROOT)}
    return metrics, [plain, traced], traced["versions"], notes


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "privsel", "__init__.py")):
        print(f"perfbench: no privsel sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, time.monotonic() + 175.0)
    os.makedirs(run.work, exist_ok=True)
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        build()
        if args.trace:
            metrics, passes, versions, notes = measure_traced(run)
            units = {k: per_layer_units(k) for k in metrics}
        else:
            metrics, passes, versions, notes = measure(run, args.seconds)
            units = END_TO_END_UNITS
        failed_labels, attempted = [], 0
        ref = checks.load_reference(args.workload, args.seed)
        for p in passes:
            labels, n = run.failures(p, ref)
            failed_labels += labels
            attempted += n
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass

    known = {c["name"] for c in run.inputs.get("calls", []) if c.get("known_defect")}
    unexpected = [x for x in failed_labels if x not in known]
    env = dict(versions or {}, nproc=nproc())
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {len(failed_labels) / max(1, attempted):.6g} fraction "
          f"({len(failed_labels)}/{attempted})")
    for label in sorted(set(failed_labels)):
        kind = "known defect" if label in known else "FAILED"
        print(f"# {kind}: {label} (x{failed_labels.count(label)})")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_labels),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
