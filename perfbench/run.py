"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --light-rate 300 --heavy-rate 700
        --workload {sim-paper,sim-flood,serve-durable} [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its
``src``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the workload's end-to-end metrics, measured untraced;
with ``--trace 1`` the workload runs once untraced and once traced, and
the metrics are the per-layer ones.  The line before it records the
environment the numbers came from.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from stats import median, metric_sum  # noqa: E402

SIM_WORKLOADS = ("sim-paper", "sim-flood")
WORKLOADS = SIM_WORKLOADS + ("serve-durable",)
CHILD_TIMEOUT_S = 170.0

#: End-to-end metrics (name -> unit).  Every workload reports every one
#: of them (see README, "End-to-end metrics").
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "our_scheme_s": "s", "peak_rss_mb": "MB"}
#: Service numbers whose run-to-run spread on a shared machine exceeds
#: any bound a benchmark may set (see README), and the service's
#: throughput, whose inverse is its ``wall_s``.  Every run prints them on
#: its diagnostics line; the traced run reports them, measured untraced.
SERVE_UNGATED = ("light_p50_ms", "light_p99_ms", "heavy_p50_ms", "heavy_p99_ms",
                 "capacity_ops_s", "restart_s", "saturation_ops_s")
#: Schemes timed on their own.  Our-scheme's time is end-to-end; the
#: others' exist only on the simulations, so they are per-layer metrics.
SCHEME_METRICS = {
    "our-scheme": "our_scheme_s", "no-metadata": "sim.no_metadata_s",
    "modified-spray": "sim.modified_spray_s",
}
SIM_ONLY = ("sim.no_metadata_s", "sim.modified_spray_s")


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code: results whose records
    differ (load average aside) are not comparable."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    backend = strategy = None
    try:
        from repro.core import backend as repro_backend

        backend = repro_backend.active_backend()
        strategy = repro_backend.resolve_strategy(None, backend, None)
    except ImportError:
        pass  # a later layout without a selectable backend
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "backend": backend,
        "strategy": strategy,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


def comparable_key(env: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in env.items() if k != "loadavg_start"}


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


def _sim_child(root: str, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "simrun.py"), "--workload", workload,
           "--order-seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"simrun exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _sim_failures(out: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` over a child's scheme runs.  The
    first pass runs all five schemes and is checked in full; a repeated
    run must reproduce it exactly."""
    first, *later = out["passes"]
    per_scheme = checks.check_sims(first)
    failed = sum(1 for ms in per_scheme.values() if ms)
    messages = [m for ms in per_scheme.values() for m in ms]
    for runs in later:
        mismatch = checks.check_same_runs(
            {name: first[name] for name in runs}, runs, "a repeated run")
        failed += len(mismatch)
        messages += mismatch
    return sum(len(runs) for runs in out["passes"]), failed, messages


def scheme_times(out: Dict[str, Any], key: str = "time_s") -> Dict[str, float]:
    """Each scheme's median time over the runs it had: ``time_s`` in
    reference seconds, ``raw_s`` in wall seconds."""
    times: Dict[str, List[float]] = {}
    for runs in out["passes"]:
        for name, run in runs.items():
            times.setdefault(name, []).append(run[key])
    return {name: median(values) for name, values in times.items()}


def sim_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics plus the other schemes' times."""
    times = scheme_times(out)
    metrics = {
        "setup_s": median(out["setup_times"]),
        "wall_s": sum(times.values()),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    for scheme, name in SCHEME_METRICS.items():
        metrics[name] = times[scheme]
    return metrics


def _layer(layers: Dict[str, Dict[str, float]], name: str, key: str = "self_s") -> float:
    return float(layers.get(name, {}).get(key, 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _common_layer_metrics(layers: Dict[str, Dict[str, float]], counts: Dict[str, float],
                          pools: List[float], distinct: int) -> Dict[str, float]:
    """Per-layer metrics of the simulation layers (sims and server alike)."""
    m: Dict[str, float] = {}
    realloc_evals = counts.get("selection.reallocate.gain_evals", 0)
    m.update({
        "selection.reallocate.s": _layer(layers, "selection.reallocate"),
        "selection.reallocate.calls": _layer(layers, "selection.reallocate", "calls"),
        "selection.reallocate.pool_p50": median(pools) if pools else 0.0,
        "selection.reallocate.pool_max": max(pools) if pools else 0.0,
        "selection.reallocate.gain_evals": realloc_evals,
        "selection.reallocate.useful_ratio": _ratio(
            counts.get("selection.reallocate.selected", 0), realloc_evals),
        "selection.uplink.s": _layer(layers, "selection.uplink"),
        "selection.uplink.calls": _layer(layers, "selection.uplink", "calls"),
    })
    profile_calls = _layer(layers, "expected_coverage.profile", "calls")
    m.update({
        "expected_coverage.profile.s": _layer(layers, "expected_coverage.profile"),
        "expected_coverage.profile.calls": profile_calls,
        "expected_coverage.profile.distinct": distinct,
        "expected_coverage.profile.reuse_ratio": 1.0 - _ratio(distinct, profile_calls)
        if profile_calls else 0.0,
    })
    full = counts.get("routing.photo_created.full_buffer", 0)
    m.update({
        "routing.photo_created.s": _layer(layers, "routing.photo_created"),
        "routing.photo_created.calls": _layer(layers, "routing.photo_created", "calls"),
        "routing.photo_created.full_buffer": full,
        "routing.photo_created.evicted": counts.get("routing.photo_created.evicted", 0),
        "routing.photo_created.admit_ratio": _ratio(
            counts.get("routing.photo_created.admitted_full", 0), full),
        "routing.contact.s": _layer(layers, "routing.contact"),
        "routing.individual_coverage.s": _layer(layers, "routing.individual_coverage"),
        "routing.prophet.s": _layer(layers, "routing.prophet"),
        "coverage_index.deliver.s": _layer(layers, "coverage_index.deliver"),
    })
    offered = counts.get("transfer.offered", 0)
    m.update({
        "transfer.s": _layer(layers, "transfer"),
        "transfer.offered": offered,
        "transfer.accepted": counts.get("transfer.accepted", 0),
        "transfer.bytes_truncated": counts.get("transfer.bytes_truncated", 0),
        "transfer.accepted_ratio": _ratio(counts.get("transfer.accepted", 0), offered),
        "metadata_mgmt.cache.s": _layer(layers, "metadata_mgmt.cache"),
        "metadata_mgmt.cache.purged": counts.get("metadata_mgmt.cache.purged", 0),
        "metadata_mgmt.cache.valid_entries": counts.get("metadata_mgmt.cache.valid_entries", 0),
    })
    return m


SERVICE_LAYER_METRICS = (
    "service.protocol.decode.s", "service.protocol.encode.s", "service.router.dispatch.s",
    "service.session.apply.ingest.s", "service.session.apply.contact.s",
    "service.session.apply.select.s", "service.server.self_s",
    "service.persistence.journal.s", "service.persistence.journal.appends",
    "service.persistence.journal.bytes", "service.persistence.snapshot.s",
    "service.persistence.snapshot.count", "service.persistence.snapshot.bytes",
    "service.persistence.recovery_s",
)


def sim_layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    trace = traced["trace"]
    layers = trace["layers"]
    m = _common_layer_metrics(layers, trace["counts"], trace["pools"],
                              trace["distinct"].get("expected_coverage.profile", 0))
    runs = traced["passes"][0]
    samples = sum(len(run.get("point_series", ())) for run in runs.values())
    traced_wall = sum(run["raw_s"] for run in runs.values())
    m["dtn.simulator.self_s"] = _layer(layers, "dtn.simulator")
    m["dtn.simulator.init_s"] = _layer(layers, "dtn.simulator.init")
    m["dtn.simulator.events"] = (_layer(layers, "routing.contact", "calls")
                                 + _layer(layers, "routing.photo_created", "calls") + samples)
    builds = trace["builds"]
    m["setup.trace.s"] = _layer(trace["setup_layers"], "setup.trace") / builds
    m["setup.photo_schedule.s"] = _layer(trace["setup_layers"], "setup.photo_schedule") / builds
    m.update({name: 0.0 for name in SERVICE_LAYER_METRICS})
    m["loadgen.lag_p99_ms"] = 0.0
    m.update({f"serve.{name}": 0.0 for name in SERVE_UNGATED})
    sim = sim_metrics(untraced)
    m.update({name: sim[name] for name in SIM_ONLY})
    untraced_wall = sum(scheme_times(untraced, "raw_s").values())
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    # Everything but the root span ``scenario``: the rest of each run is
    # ``run_scenario``'s own work, outside every layer.
    m["trace.accounted_frac"] = _ratio(
        sum(row["self_s"] for name, row in layers.items() if name != "scenario"), traced_wall)
    return m


def run_sim(root: str, workload: str, seed: int, trace: bool
            ) -> Tuple[Dict[str, Any], Dict[str, Any], str]:
    untraced = _sim_child(root, workload, seed, trace=False)
    attempted, failed, messages = _sim_failures(untraced)
    first = untraced["passes"][0]
    diag: Dict[str, Any] = {
        "orders": untraced["orders"],
        "fingerprints": {name: checks.fingerprint(run) for name, run in first.items()},
        "raw_s": [{k: v["raw_s"] for k, v in runs.items()} for runs in untraced["passes"]],
        "reference_s": [{k: v["time_s"] for k, v in runs.items()} for runs in untraced["passes"]],
        "setup_raw_s": untraced["setup_raw"],
    }
    if not trace:
        metrics = {name: value for name, value in sim_metrics(untraced).items()
                   if name in E2E_METRICS}
        units = E2E_METRICS
    else:
        traced = _sim_child(root, workload, seed, trace=True)
        t_attempted, t_failed, t_messages = _sim_failures(traced)
        match = checks.check_same_runs(first, traced["passes"][0], "the traced run")
        attempted += t_attempted
        failed += t_failed + len(match)
        messages += t_messages + match
        metrics = sim_layer_metrics(untraced, traced)
        diag["missing"] = traced["trace"]["missing"]
        units = {}
    result = {"attempted": attempted, "failed": failed, "messages": messages}
    return result, _with_units(metrics, units), json.dumps(diag)


# ----------------------------------------------------------------------
# The durable server
# ----------------------------------------------------------------------


def serve_layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    dump = traced["trace"]
    layers = dump["summary"]
    counts = dump["counts"]
    m = _common_layer_metrics(layers, counts,
                              dump["samples"].get("selection.reallocate.pool", []),
                              dump["distinct"].get("expected_coverage.profile", 0))
    m["dtn.simulator.self_s"] = 0.0
    m.update({name: 0.0 for name in SIM_ONLY})
    m["dtn.simulator.init_s"] = _layer(layers, "dtn.simulator.init")
    m["dtn.simulator.events"] = (_layer(layers, "routing.contact", "calls")
                                 + _layer(layers, "routing.photo_created", "calls"))
    m["setup.trace.s"] = _layer(layers, "setup.trace")
    m["setup.photo_schedule.s"] = _layer(layers, "setup.photo_schedule")
    server_metrics = traced["server_metrics"]
    request_s = metric_sum(server_metrics, "repro_service_request_seconds_sum")
    inside = _layer(layers, "service.protocol.decode") + _layer(
        layers, "service.router.dispatch", "total_s")
    m.update({
        "service.protocol.decode.s": _layer(layers, "service.protocol.decode"),
        "service.protocol.encode.s": _layer(layers, "service.protocol.encode"),
        "service.router.dispatch.s": _layer(layers, "service.router.dispatch"),
        "service.session.apply.ingest.s": _layer(layers, "service.session.apply.ingest"),
        "service.session.apply.contact.s": _layer(layers, "service.session.apply.contact"),
        "service.session.apply.select.s": _layer(layers, "service.session.apply.select"),
        "service.server.self_s": request_s - inside,
        "service.persistence.journal.s": _layer(layers, "service.persistence.journal"),
        "service.persistence.journal.appends": metric_sum(
            server_metrics, "repro_service_wal_appends_total"),
        "service.persistence.journal.bytes": metric_sum(
            server_metrics, "repro_service_wal_bytes_total"),
        "service.persistence.snapshot.s": _layer(layers, "service.persistence.snapshot"),
        "service.persistence.snapshot.count": metric_sum(
            server_metrics, "repro_service_wal_snapshots_total"),
        "service.persistence.snapshot.bytes": counts.get(
            "service.persistence.snapshot.bytes", 0),
        "service.persistence.recovery_s": traced["recovery_s"],
        "loadgen.lag_p99_ms": traced["lag_p99_ms"],
    })

    def per_request(out: Dict[str, Any]) -> float:
        metrics = out["server_metrics"]
        return _ratio(metric_sum(metrics, "repro_service_request_seconds_sum"),
                      metric_sum(metrics, "repro_service_request_seconds_count"))

    m["trace.overhead_frac"] = _ratio(per_request(traced), per_request(untraced)) - 1.0
    # The server's own request time (``service.server.self_s``) is the
    # remainder, so it is left out here, as is the session's set-up.
    setup_names = {"setup.trace", "setup.photo_schedule", "dtn.simulator.init"}
    accounted = sum(row["self_s"] for name, row in layers.items() if name not in setup_names)
    m["trace.accounted_frac"] = _ratio(accounted, request_s + m["service.protocol.encode.s"])
    return m


def serve_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of the service.  Its fixed work is the light
    and heavy phases' requests, and its time for them (``busy_s``) is the
    server's CPU time plus its waits in ``fsync``.
    The server runs one scheme, the our-scheme champion, so that time is
    also ``our_scheme_s``."""
    return {"setup_s": median(out["setup_times"]), "wall_s": out["busy_s"],
            "our_scheme_s": out["busy_s"], "peak_rss_mb": float(out["peak_rss_mb"])}


def _restart_failures(out: Dict[str, Any]) -> List[str]:
    return [m for after in out["coverage_after"]
            for m in checks.check_restart(out["coverage_before"], after)]


def run_serve(root: str, seed: int, seconds: float, trace: bool, light_rate: float,
              heavy_rate: float) -> Tuple[Dict[str, Any], Dict[str, float], str]:
    import serve

    untraced = serve.run(root, seed, seconds, False, light_rate, heavy_rate, ladder=trace)
    messages = _restart_failures(untraced)
    attempted, failed = untraced["attempted"], untraced["failed"]
    diag = {"setup_times": untraced["setup_times"], "setup_wall_s": untraced["setup_wall"],
            "setup_cpu_s": untraced["setup_cpu"],
            "restart_times": untraced["restart_times"],
            "lag_p99_ms": untraced["lag_p99_ms"], "recovery_s": untraced["recovery_s"],
            "coverage": untraced["coverage_before"],
            "server_cpu_s": untraced["server_cpu_s"], "fsync_s": untraced["fsync_s"],
            "answered": untraced["answered"],
            **{name: untraced[name] for name in SERVE_UNGATED + ("rungs",) if name in untraced}}
    if not trace:
        metrics = serve_metrics(untraced)
        units = E2E_METRICS
    else:
        traced = serve.run(root, seed, seconds, True, light_rate, heavy_rate, ladder=True)
        messages += _restart_failures(traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = serve_layer_metrics(untraced, traced)
        metrics.update({f"serve.{name}": untraced.get(name, 0.0) for name in SERVE_UNGATED})
        diag["missing"] = traced["trace"]["missing"]
        units = {}
    if untraced["lag_p99_ms"] > 10.0:
        print(f"perfbench: the load generator ran late (lag p99 "
              f"{untraced['lag_p99_ms']:.1f} ms); latencies are suspect", file=sys.stderr)
    result = {"attempted": attempted, "failed": failed, "messages": messages}
    return result, _with_units(metrics, units), json.dumps(diag)


# ----------------------------------------------------------------------


def _with_units(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
            for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ops_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def manifest_mismatch(root: str, metrics: Dict[str, Any], trace: bool) -> List[str]:
    """How the printed metrics differ from the manifest's end-to-end
    (``trace`` false) or per-layer list: missing, extra, or in another unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    problems = [f"missing {name}" for name in units if name not in metrics]
    problems += [f"extra {name}" for name in metrics if name not in units]
    problems += [f"{name} in {metrics[name]['unit']}, listed in {unit}"
                 for name, unit in units.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the serve-durable rate ladder")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--light-rate", type=float, default=300.0, help="ops/s")
    parser.add_argument("--heavy-rate", type=float, default=700.0, help="ops/s")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = environment()
    if args.workload == "serve-durable" and env["nproc"] < 2:
        print(f"perfbench: serve-durable needs 2 CPUs (client and server), "
              f"this process may use {env['nproc']}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}), flush=True)

    started = time.perf_counter()
    try:
        if args.workload in SIM_WORKLOADS:
            result, metrics, diag = run_sim(root, args.workload, args.seed, bool(args.trace))
        else:
            result, metrics, diag = run_serve(root, args.seed, args.seconds,
                                              bool(args.trace), args.light_rate,
                                              args.heavy_rate)
    except Exception as exc:  # noqa: BLE001 - report, print no result, fail
        print(f"perfbench: {args.workload} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    mismatch = manifest_mismatch(root, metrics, bool(args.trace))
    if mismatch:
        print(f"perfbench: the metrics differ from BENCHMARK.json: {mismatch}",
              file=sys.stderr)
        return 1
    print(diag)
    for message in result["messages"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(f"perfbench: {args.workload} took {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not result["messages"] and not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
