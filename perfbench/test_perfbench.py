"""The benchmark's own tests: span arithmetic, the percentile rule, and
every output check failing on a doctored result.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import os
import time

import pytest

import calib
import checks
from stats import parse_prometheus, metric_sum, percentile, tail_percentile
from tracing import Tracer, self_times

# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0.0),
        ("a", 1.0, 4.0, 0, 0.0),
        ("b", 2.0, 3.0, 1, 0.0),  # inside a: charged to a, not to root
        ("c", 5.0, 9.0, 0, 1.5),  # 1.5 s of leaf calls inside c
    ]
    out = self_times(spans)
    assert out["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert out["a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert out["b"]["self_s"] == pytest.approx(1.0)
    assert out["c"]["self_s"] == pytest.approx(4.0 - 1.5)
    assert out["root"]["total_s"] == pytest.approx(10.0)
    # Self times plus leaf time partition the root exactly.
    assert sum(row["self_s"] for row in out.values()) + 1.5 == pytest.approx(10.0)


def test_recursive_span_counts_self_time_once():
    spans = [
        ("apply", 0.0, 5.0, -1, 0.0),
        ("apply", 1.0, 3.0, 0, 0.0),
    ]
    out = self_times(spans)
    assert out["apply"]["calls"] == 2
    assert out["apply"]["self_s"] == pytest.approx(5.0)
    assert out["apply"]["total_s"] == pytest.approx(7.0)


def test_tracer_wraps_nested_calls_and_leaves():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.003)
        timed_leaf()

    timed_leaf = tracer.wrap_leaf("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: [traced_inner() for _ in range(3)])
    outer()
    out = tracer.summary()
    assert out["outer"]["calls"] == 1 and out["inner"]["calls"] == 3
    assert out["leaf"]["calls"] == 3
    total = out["outer"]["total_s"]
    assert sum(row["self_s"] for row in out.values()) == pytest.approx(total, rel=1e-9)
    assert out["inner"]["self_s"] >= 3 * 0.003
    assert out["leaf"]["self_s"] >= 3 * 0.002


def test_observe_runs_outside_the_span_and_sees_the_result():
    tracer = Tracer()
    seen = []

    def observe(args, kwargs):
        time.sleep(0.01)  # must not land in the span
        return seen.append

    wrapped = tracer.wrap("f", lambda x: x * 2, observe)
    assert wrapped(21) == 42
    assert seen == [42]
    assert tracer.summary()["f"]["self_s"] < 0.005


def test_patch_reports_missing_names_and_unpatch_restores():
    class Owner:
        def method(self):
            return 1

    tracer = Tracer()
    original = Owner.__dict__["method"]
    assert tracer.patch(Owner, "method", "m")
    assert not tracer.patch(Owner, "gone", "g")
    assert tracer.missing == ["Owner.gone"]
    assert Owner().method() == 1
    assert tracer.summary()["m"]["calls"] == 1
    tracer.unpatch()
    assert Owner.__dict__["method"] is original


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


@pytest.mark.parametrize("n, expected_p", [
    (10000, 99.9),  # 10 samples beyond the 99.9th
    (9999, 99.0),
    (1000, 99.0),   # exactly 10 beyond
    (999, 90.0),    # p99 would leave 9
    (100, 90.0),
    (99, 50.0),
    (20, 50.0),
    (19, None),     # not even the median has 10 beyond it
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected_p):
    values = [float(i) for i in range(n)]
    p, value, count = tail_percentile(values)
    assert count == n
    assert p == expected_p
    if p is not None:
        assert sum(1 for v in values if v > value) >= 10


def test_prometheus_parse_and_label_sum():
    text = (
        "# HELP x y\n"
        'repro_service_wal_appends_total{variant="champion"} 12\n'
        'repro_service_wal_appends_total{variant="challenger"} 3\n'
        "repro_service_request_seconds_sum 1.5\n"
    )
    samples = parse_prometheus(text)
    assert metric_sum(samples, "repro_service_wal_appends_total") == 15
    assert metric_sum(samples, "repro_service_wal_appends_total", variant="champion") == 12
    assert metric_sum(samples, "repro_service_request_seconds_sum") == 1.5


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _run(final_point, delivered=10, created=100, contacts=50):
    return {
        "point_series": [0.1, 0.5, final_point],
        "aspect_series": [10.0, 20.0, 30.0],
        "delivered_series": [1, 5, delivered],
        "final_point": final_point,
        "final_aspect": 30.0,
        "delivered": delivered,
        "created": created,
        "contacts_processed": contacts,
    }


@pytest.fixture
def runs():
    return {
        "best-possible": _run(0.9),
        "our-scheme": _run(0.8),
        "no-metadata": _run(0.7),
        "modified-spray": _run(0.6),
        "spray-and-wait": _run(0.5),
    }


def _failed_schemes(runs):
    return {name for name, msgs in checks.check_sims(runs).items() if msgs}


def test_sound_result_passes(runs):
    assert _failed_schemes(runs) == set()
    assert checks.check_same_runs(runs, copy.deepcopy(runs), "the traced run") == []
    assert checks.check_restart({"champion": {"point": 1.0}}, {"champion": {"point": 1.0}}) == []


def test_point_coverage_outside_unit_interval_fails(runs):
    runs["our-scheme"]["point_series"][0] = -0.01
    assert _failed_schemes(runs) == {"our-scheme"}
    runs["our-scheme"]["point_series"][0] = 0.1
    runs["no-metadata"]["point_series"][-1] = 1.2
    runs["no-metadata"]["final_point"] = 0.7  # the series alone must trip it
    assert "no-metadata" in _failed_schemes(runs)


@pytest.mark.parametrize("key", ["point_series", "aspect_series", "delivered_series"])
def test_decreasing_series_fails(runs, key):
    series = runs["spray-and-wait"][key]
    series[1], series[0] = series[0], series[1]
    assert _failed_schemes(runs) == {"spray-and-wait"}


def test_beating_best_possible_fails(runs):
    runs["our-scheme"]["final_point"] = 0.95
    runs["our-scheme"]["point_series"][-1] = 0.95
    assert _failed_schemes(runs) == {"our-scheme"}


def test_delivered_beyond_created_fails(runs):
    runs["modified-spray"]["delivered"] = 101
    assert _failed_schemes(runs) == {"modified-spray"}


def test_contacts_processed_differing_fails(runs):
    runs["no-metadata"]["contacts_processed"] = 49
    assert _failed_schemes(runs) == set(runs)


def test_raised_scheme_fails(runs):
    runs["our-scheme"] = {"error": "RuntimeError: boom", "time_s": 1.0}
    assert _failed_schemes(runs) == {"our-scheme"}


def test_traced_or_repeated_run_differing_fails(runs):
    traced = copy.deepcopy(runs)
    traced["our-scheme"]["aspect_series"][-1] += 1e-9
    assert checks.check_same_runs(runs, traced, "the traced run") != []
    del traced["no-metadata"]
    assert len(checks.check_same_runs(runs, traced, "a repeated pass")) == 2


def test_coverage_changed_by_restart_fails():
    before = {"champion": {"point_coverage": 0.5, "delivered_photos": 7}}
    after = {"champion": {"point_coverage": 0.5, "delivered_photos": 6}}
    assert checks.check_restart(before, after) != []


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def test_speed_probe_scales_by_the_median_snippet_in_the_window():
    probe = calib.SpeedProbe()
    ref = calib.REFERENCE_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 4 * ref), (9.0, ref)]
    # Window [0.5, 3.5]: median snippet 2x the reference -> half the time.
    assert probe.scale(0.5, 3.5) == pytest.approx(0.5)
    # An empty window falls back to the nearest samples (9.0, 3.0, 2.0).
    assert probe.scale(8.9, 8.95) == pytest.approx(0.5)


def test_speed_probe_samples_while_started():
    probe = calib.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 4 * calib.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert probe.scale(0.0, time.perf_counter()) > 0


# ----------------------------------------------------------------------
# What a simulation run measures
# ----------------------------------------------------------------------


def test_repeated_schemes_are_named_paper_schemes():
    """Which schemes run twice is fixed by name per workload, so it does
    not change with how fast a commit runs them."""
    import os
    import sys

    import simrun

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from repro.experiments.runner import PAPER_SCHEMES

    assert set(simrun.REPEAT) == set(simrun.WORKLOADS)
    for names in simrun.REPEAT.values():
        assert names and set(names) <= set(PAPER_SCHEMES)
    assert set(simrun.REPEAT["sim-flood"]) == set(PAPER_SCHEMES)


# ----------------------------------------------------------------------
# The printed metrics are the manifest's
# ----------------------------------------------------------------------


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_workload_prints_every_end_to_end_metric():
    """The result line of every workload carries each end-to-end metric of
    BENCHMARK.json, in its unit."""
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        listed = {e["name"]: e["unit"] for e in json.load(handle)["end_to_end"]}
    assert run.E2E_METRICS == listed
    sim_out = {
        "setup_times": [0.5, 0.6],
        "peak_rss_mb": 140.0,
        "passes": [{name: {"time_s": 1.0 + i} for i, name in enumerate(
            ("our-scheme", "no-metadata", "modified-spray", "best-possible",
             "spray-and-wait"))}],
    }
    serve_out = {"setup_times": [0.4, 0.5, 0.6], "peak_rss_mb": 90.0, "busy_s": 6.5}
    for metrics in ({k: v for k, v in run.sim_metrics(sim_out).items()
                     if k in run.E2E_METRICS}, run.serve_metrics(serve_out)):
        assert set(metrics) == set(listed)
        assert all(value > 0 for value in metrics.values())
        assert run.manifest_mismatch(ROOT, run._with_units(metrics, run.E2E_METRICS),
                                     False) == []
    assert run.serve_metrics(serve_out)["wall_s"] == pytest.approx(6.5)


def test_manifest_mismatch_names_missing_extra_and_unit():
    import run

    printed = run._with_units({"setup_s": 1.0, "wall_s": 2.0, "bogus_s": 3.0},
                              run.E2E_METRICS)
    printed["wall_s"]["unit"] = "ms"
    problems = run.manifest_mismatch(ROOT, printed, False)
    assert "missing our_scheme_s" in problems
    assert "extra bogus_s" in problems
    assert any(p.startswith("wall_s in ms") for p in problems)
