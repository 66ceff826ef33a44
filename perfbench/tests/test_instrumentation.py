"""Self-test of the benchmark's instrumentation.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from privsel import cli, pld, presets, profiles  # noqa: E402


def _snapshot():
    """Identity of every attribute of every privsel module and class."""
    snap = {}
    for name, mod in sys.modules.items():
        if name.startswith("privsel"):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = id(cvalue)
    return snap


def test_from_import_bindings_are_intercepted(monkeypatch):
    monkeypatch.setattr(pld, "_COMPOSED", {})  # no PLD left from other tests
    with tracing.Tracer() as t:
        assert presets.epsilon_for_delta is profiles.epsilon_for_delta
        assert getattr(presets.epsilon_for_delta, "__wrapped_by_perfbench__", False)
        assert getattr(cli.subsampled_gaussian_profile, "__wrapped_by_perfbench__", False)
        _, rows = presets.fig1_table()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["profile", "--base", "subsampled_gaussian", "--q", "0.2",
                           "--sigma", "2", "--eps-grid", "0:1:1"])
    assert rc == 0
    m = t.layer_metrics(1.0)
    assert m["profiles.eps_for_delta.calls"] == len(rows)  # one per fig1 row
    assert m["pld.build.calls"] == 2  # remove and add directions
    assert t.stats["pld.profile"][0] == 1
    assert t.stats["cli.main"][0] == 1
    assert not t.notes


@pytest.mark.parametrize("steps,expected", [(1, 0), (2, 1), (3, 2), (7, 4),
                                            (8, 3), (14063, 23)])
def test_convolution_count_matches_formula(steps, expected, monkeypatch):
    made = []
    real = pld._convolve
    monkeypatch.setattr(pld, "_convolve", lambda a, b: made.append(1) or real(a, b))
    one_step = pld.DiscretePLD(spacing=0.1, origin_index=-1,
                               mass=np.array([0.25, 0.5, 0.25]), tail_mass=0.0)
    with tracing.Tracer() as t:
        pld.compose(one_step, steps)
    assert tracing.convolutions(steps) == expected == len(made)
    assert t.counts["pld.convolutions"] == expected


def test_every_patched_attribute_is_restored():
    before = _snapshot()
    with tracing.Tracer() as t:
        assert _snapshot() != before
        presets.fig2_table()
    assert t.stats["presets.fig2_table"][0] == 1
    assert _snapshot() == before


def test_self_times_account_for_the_traced_wall():
    import time

    with tracing.Tracer() as t:
        start = time.perf_counter()
        presets.fig3_table()
        wall = time.perf_counter() - start
    m = t.layer_metrics(wall)
    assert 0.95 < m["trace.accounted_ratio"] <= 1.0
    assert m["profiles.profile_evals"] > 0
    assert m["pld.delta.calls"] == 0


def test_importtime_groups_lazily_imported_packages():
    # children come before their parent; scipy.stats, imported lazily, has
    # no line of its own
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.stats._a",
        "import time:         5 |          5 |         scipy.stats._c",
        "import time:        20 |         50 |       scipy.stats._b",
        "import time:         7 |         70 |     privsel.countdist",
        "import time:         3 |         80 |   privsel",
        "import time:         9 |         90 | privsel.cli",
    ])
    got = tracing.parse_importtime(text)
    assert got["import.scipy_stats_s"] == pytest.approx(60e-6)
    assert got["import.privsel_s"] == pytest.approx(90e-6)  # privsel is inside privsel.cli
    assert got["import.scipy_signal_s"] == 0.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    traced = set(tracing.Tracer().layer_metrics(1.0))
    traced |= set(tracing.IMPORT_GROUPS) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    # step-search runs by hand only (see README.md)
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS) - {"step-search"}
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_units(m["name"])


def test_inputs_depend_only_on_the_seed():
    for name, gen in workloads.GENERATORS.items():
        assert json.dumps(gen(3)) == json.dumps(gen(3)), name
    assert workloads.bulk_queries(3) != workloads.bulk_queries(4)
    assert workloads.step_search(3) != workloads.step_search(4)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000))) == (989, "p99 of 1000")
    assert run.tail(list(range(40)))[1] == "p75 of 40"
    assert run.tail(list(range(18))) == (7, "p44 of 18")  # 8..17 lie beyond
    assert run.tail([3.0, 1.0]) == (3.0, "max of 2")


def test_intervals_are_scaled_by_the_probes_around_them():
    line = speed.Timeline(clock=None)
    ref = speed.REFERENCE_S
    line.times, line.samples = [0.0, 1.0, 2.0], [ref, 3 * ref, ref]
    assert line.scaled(0.0, 1.0) == pytest.approx(0.5)   # mean probe 2 ref
    assert line.scaled(0.5, 0.75) == pytest.approx(0.125)
    assert line.scaled(-1.0, 0.0) == pytest.approx(1.0)  # first probe alone
    assert line.scaled(2.0, 4.0) == pytest.approx(2.0)   # last probe alone
    assert line.scaled(-1.0, 3.0) == pytest.approx(3.0)


def test_import_timeline_scales_each_call_by_the_probes_around_it():
    # as in cli_pass: a probe before the first call and after every
    # PROBE_EVERY-th one; each call takes the mean of the two around it
    probes = iter([0.8, 0.4, 0.4])
    clock = iter([0.0, 3.0, 5.0])
    line = speed.Timeline(clock=lambda: next(clock), probe=lambda: next(probes),
                          reference=0.4)
    for _ in range(3):
        line.sample()
    assert line.scaled(0.5, 2.5) == pytest.approx(2.0 * 0.4 / 0.6)
    assert line.scaled(3.5, 4.5) == pytest.approx(1.0)


def test_probe_time_is_left_out_of_sampled_intervals():
    import time

    with speed.Sampler() as s:
        a, w0 = s.clock(), time.perf_counter()
        time.sleep(0.6)  # the timer fires twice
        b, w1 = s.clock(), time.perf_counter()
    inside = s.samples[1:-1]  # the first and last run outside [a, b]
    assert len(inside) >= 2
    # up to the few microseconds of signal handling around each probe
    assert (w1 - w0) - (b - a) == pytest.approx(sum(inside), abs=1e-4)
