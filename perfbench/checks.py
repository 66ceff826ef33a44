"""Output checks behind `failed` and `correct`.

Every output is checked against invariants any correct answer meets
(noisy-argmax answers against a stdlib recomputation), and, for the seeds
in references/, against outputs recorded from privsel 1.0.0. Tolerances follow the accountant's own error: an eps found by
bisection may sit up to BISECT_TOL above the exact inverse, an eps read
off a discretized PLD may move by one grid cell, and a delta evaluated
directly is compared to a relative 1e-5.
"""

from __future__ import annotations

import json
import math
import os

BISECT_TOL = 1e-6
EPS_TOL = 2 * BISECT_TOL
DELTA_RTOL = 1e-5
DEFAULT_SPACING = 1e-4   # privsel.pld.GridSpec's default
FIG6_SPACING = 2.5e-5    # privsel.presets.FIG6_GRID
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def load_reference(workload, seed):
    """Recorded outputs for this workload and seed, or None."""
    path = os.path.join(REF_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        seeds = json.load(f)["seeds"]
    return seeds.get("any", seeds.get(str(seed)))


def _close(got, ref, abs_tol, rel_tol=1e-12):
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= abs_tol + rel_tol * abs(ref)


def _column_close(name, got, ref, eps_tol):
    """Compare one named value: eps columns by eps_tol, delta and CDF
    columns by DELTA_RTOL, everything else (counts, grid inputs) exactly."""
    if name.startswith("eps"):
        return _close(got, ref, eps_tol)
    if name.startswith(("delta", "cdf")):
        return _close(got, ref, 1e-300, DELTA_RTOL)
    return _close(got, ref, 0.0)


# -- cli-query -------------------------------------------------------------

def parse_cli_stdout(stdout):
    """Named numbers printed by one CLI call, as a list of (name, value)."""
    text = stdout.strip()
    if not text:
        return []
    if text.startswith("{"):
        d = json.loads(text)
        return [("eps", float(d["eps"])), ("delta", float(d["delta"]))]
    if text.startswith("eps=") and "\n" not in text:
        fields = dict(tok.split("=", 1) for tok in text.split())
        return [("eps", float(fields["eps"])), ("delta", float(fields["delta"]))]
    if text.endswith("oracle checks passed"):
        passed, total = text.splitlines()[-1].split()[0].split("/")
        return [("oracle_passed", float(passed)), ("oracle_total", float(total))]
    values = []
    for block in text.split("\n\n"):
        lines = block.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            values += [(h, float(v)) for h, v in zip(header, line.split(","))]
    return values


def _cli_eps_tol(argv):
    if "subsampled_gaussian" not in argv:
        return EPS_TOL
    spacing = DEFAULT_SPACING
    if "--grid-spacing" in argv:
        spacing = float(argv[argv.index("--grid-spacing") + 1])
    return EPS_TOL + spacing


def check_cli(calls, outputs, reference):
    """Failed call names of one pass (known defects included)."""
    failed = []
    values = {}
    for i, (call, out) in enumerate(zip(calls, outputs)):
        ok = out["rc"] == call["expect_rc"]
        if ok and out["rc"] == 0:
            try:
                vals = parse_cli_stdout(out["stdout"])
            except (ValueError, KeyError, IndexError):
                vals = None
            ok = bool(vals) and all(math.isfinite(v) for _, v in vals)
            ok = ok and all(0.0 <= v <= 1.0 for n, v in vals if n.startswith("delta"))
            if ok and reference is not None:
                ref = parse_cli_stdout(reference[i]["stdout"])
                tol = _cli_eps_tol(call["argv"])
                ok = (reference[i]["rc"] == 0 and len(ref) == len(vals)
                      and all(n == rn and _column_close(n, v, rv, tol)
                              for (n, v), (rn, rv) in zip(vals, ref)))
            if ok:
                values[call["name"]] = dict(vals)
        elif ok and out["stdout"].strip():
            ok = False  # an error path prints nothing on stdout
        if not ok:
            failed.append(call["name"])
    hs, rdp = values.get("guarantee-negbin-hs"), values.get("guarantee-negbin-rdp")
    if hs and rdp and hs["eps"] > rdp["eps"] + EPS_TOL:
        failed.append("guarantee-negbin-hs")
    return failed


# -- dpsgd-tables ------------------------------------------------------------

TABLE_SPACING = {"fig6_table": FIG6_SPACING, "fig7_table": DEFAULT_SPACING}


def check_tables(tables, reference):
    """Failed row labels of one pass; one row is one output."""
    failed = []
    for t, table in enumerate(tables):
        ref = reference[t] if reference is not None else None
        for r, row in enumerate(table["rows"]):
            ok = all(math.isfinite(v) and v > 0 for v in row)
            if ok and ref is not None:
                ref_row = ref["rows"][r] if r < len(ref["rows"]) else None
                ok = ref_row is not None and len(ref_row) == len(row)
                for name, got, want in zip(table["header"], row, ref_row or ()):
                    tol = EPS_TOL
                    if name.startswith("eps_hs"):
                        tol += TABLE_SPACING[table["name"]]
                    ok = ok and _column_close(name, got, want, tol)
            if not ok:
                failed.append(f"{table['name']}[{r}]")
    return failed


def table_outputs(tables):
    return sum(len(t["rows"]) for t in tables)


# -- step-search ---------------------------------------------------------------

def check_steps(calls, rows, reference):
    """Failed candidate labels of one pass.

    A row is (sigma, max_steps, eps_final, delta_final, eps_direct, gap).
    The directly optimized eps can never exceed the adjusted guarantee.
    """
    failed = []
    for i, (call, row) in enumerate(zip(calls, rows)):
        sigma, steps, eps_final, delta_final, eps_direct, _ = row
        ok = (steps >= 1 and math.isfinite(eps_final) and math.isfinite(eps_direct)
              and eps_direct <= eps_final + EPS_TOL)
        if ok and reference is not None:
            ref = reference[i]
            ok = (abs(steps - ref[1]) <= max(1.0, 1e-3 * ref[1])
                  and _close(eps_final, ref[2], EPS_TOL)
                  and _close(delta_final, ref[3], 0.0))
            if ok and steps == ref[1]:
                ok = _close(eps_direct, ref[4], EPS_TOL + DEFAULT_SPACING)
        if not ok:
            failed.append(f"q={call['q']:.4g},sigma={sigma:.4g}")
    return failed


# -- bulk-queries --------------------------------------------------------------

def _gaussian_delta(eps, sigma, sensitivity):
    """Gaussian-mechanism profile, written out with the stdlib only."""
    r = sensitivity / sigma
    a = 0.5 * math.erfc(-(r / 2 - eps / r) / math.sqrt(2))
    b = 0.5 * math.erfc((r / 2 + eps / r) / math.sqrt(2))
    return a - (math.exp(eps) * b if b > 0 else 0.0)


def rnm_reference_eps(sigma, candidates, rounds, delta):
    """eps(delta) of noisy argmax over `rounds` rounds, recomputed here:
    the smallest eps with candidates^rounds * gaussian(eps; sensitivity
    2 sqrt(rounds)) <= delta, by bisection to 1e-10."""
    sens = 2.0 * math.sqrt(rounds)

    def over(eps):
        return candidates ** rounds * _gaussian_delta(eps, sigma, sens) > delta

    if not over(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while over(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    return hi


def check_bulk(queries, eps, reference, invariant_failures):
    """Failed query labels of one pass: the child's invariant failures,
    noisy-argmax answers that leave the recomputed value, and answers that
    leave the recorded reference."""
    bad = set(invariant_failures)
    for i, (q, got) in enumerate(zip(queries, eps)):
        if q["kind"] == "rnm-hs":
            want = rnm_reference_eps(q["sigma"], q["candidates"], q["rounds"],
                                     q["delta"])
            if not _close(got, want, EPS_TOL):
                bad.add(i)
    if reference is not None:
        for i, (got, want) in enumerate(zip(eps, reference)):
            if not _close(got, want, EPS_TOL):
                bad.add(i)
        if len(reference) != len(eps):
            bad.update(range(min(len(reference), len(eps)), len(eps)))
    return [f"{queries[i]['kind']}#{i}" for i in sorted(bad)]
