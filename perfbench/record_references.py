"""Record the reference outputs the benchmark checks against.

Usage, from the repository root:

    python3 perfbench/record_references.py [WORKLOAD ...]

Runs one untraced pass per workload and default seed (0-9; the fixed
dpsgd-tables presets once) and writes perfbench/references/WORKLOAD.json.
Outputs that break an invariant are refused, so references only hold
answers that are at least self-consistent. Re-record only in a change
that is about the benchmark, never in one that claims a gain.
"""

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads

DEFAULT_SEEDS = range(10)


def _compact(workload, outputs):
    """Bulk answers are rounded to 12 digits: far below the tolerance."""
    if workload == "bulk-queries":
        return [float(f"{e:.12g}") for e in outputs]
    return outputs


def record(workload):
    seeds = [0] if workload == "dpsgd-tables" else list(DEFAULT_SEEDS)
    refs = {}
    for seed in seeds:
        r = run.Run(workload, seed, time.monotonic() + 175.0)
        os.makedirs(r.work)
        try:
            result = r.measured_pass()
            failed, _ = r.failures(result, None)
        finally:
            shutil.rmtree(r.work, ignore_errors=True)
        known = {c["name"] for c in r.inputs.get("calls", []) if c.get("known_defect")}
        unexpected = [f for f in failed if f not in known]
        if unexpected:
            raise SystemExit(f"{workload} seed {seed}: invariants fail: {unexpected[:5]}")
        refs["any" if workload == "dpsgd-tables" else str(seed)] = _compact(
            workload, result["outputs"])
        print(f"{workload} seed {seed}: recorded", flush=True)
    os.makedirs(checks.REF_DIR, exist_ok=True)
    with open(os.path.join(checks.REF_DIR, f"{workload}.json"), "w") as f:
        json.dump({"privsel": "1.0.0", "seeds": refs}, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
