"""One simulation run of the benchmark, in a fresh process.

Builds the workload's scenario ``BUILDS[workload]`` times (the median
build time is the set-up time), then runs the five paper schemes
serially through ``run_scenario`` on the last build, runs the workload's
``REPEAT`` schemes again until each has ``PASSES`` runs, and prints one
JSON line: per-scheme times, raw and in reference seconds (see
``calib.py``), the sample series the output checks need, and the
process's peak RSS.
With ``--trace 1`` every layer boundary carries a span and a
``SimTelemetry`` counts selection and transfer work; the line then also
holds the per-layer summary.

Run it through ``run.py``; it is a separate process so that nothing --
memoized profiles, allocator state, imported modules -- carries over
from one run to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The two simulation conditions.  Both are the MIT-like trace at scale
#: 0.5 with 2 MB/s contacts; ``sim-paper`` is Fig. 5's storage and photo
#: rate, ``sim-flood`` fills a 12-photo buffer at four times the rate.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "sim-paper": dict(storage_gb=0.6, photos_per_hour=250.0),
    "sim-flood": dict(storage_gb=0.05, photos_per_hour=1000.0),
}
#: Schemes that run ``PASSES`` times and report their median: a run of a
#: few seconds is shorter than the slow spells of a shared machine, a run
#: of ten or more averages over several.  Fixed by name, so that every
#: commit measures a scheme the same way however fast it has become.
REPEAT: Dict[str, Tuple[str, ...]] = {
    "sim-paper": ("best-possible", "spray-and-wait"),
    "sim-flood": ("our-scheme", "no-metadata", "modified-spray", "best-possible",
                  "spray-and-wait"),
}
#: Untraced passes; a traced run makes one, which gives the layer split.
PASSES = {"sim-paper": 2, "sim-flood": 3}
SCALE = 0.5
#: The one scenario both workloads run (see README, "What --seed varies").
SCENARIO_SEED = 0
#: Scenario builds per run; the median is the set-up time.  A
#: ``sim-paper`` build takes well under a second, so more of them
#: steady its median at little cost; a ``sim-flood`` build takes two.
BUILDS = {"sim-paper": 5, "sim-flood": 2}


def _spec(repro_config: Any, workload: str) -> Any:
    return repro_config.ScenarioSpec(
        trace_name=repro_config.TRACE_MIT,
        bandwidth_mb_per_s=2.0,
        scale=SCALE,
        seed=SCENARIO_SEED,
        **WORKLOADS[workload],
    )


def _counting_telemetry(tracer: Tracer) -> Any:
    """A ``SimTelemetry`` whose selection and transfer hooks also feed
    the tracer's counters, attributed to the innermost open span."""
    from repro.obs.telemetry import SimTelemetry

    class CountingTelemetry(SimTelemetry):
        def on_selection(self, *args: Any, **kwargs: Any) -> None:
            super().on_selection(*args, **kwargs)
            where = tracer.current() or "selection.other"
            tracer.count(f"{where}.gain_evals", kwargs.get("gain_evaluations", 0))
            tracer.count(f"{where}.selected", kwargs.get("selected", 0))

        def on_transfer_outcome(self, *args: Any, **kwargs: Any) -> None:
            super().on_transfer_outcome(*args, **kwargs)
            tracer.count("transfer.offered", kwargs.get("offered", 0))
            tracer.count("transfer.accepted", kwargs.get("accepted", 0))
            tracer.count("transfer.bytes_truncated", kwargs.get("bytes_truncated", 0))

    return CountingTelemetry()


def _result_record(result: Any) -> Dict[str, Any]:
    samples = result.samples
    return {
        "point_series": [s.point_coverage for s in samples],
        "aspect_series": [s.aspect_coverage_deg for s in samples],
        "delivered_series": [s.delivered_photos for s in samples],
        "final_point": result.final_point_coverage,
        "final_aspect": result.final_aspect_coverage_deg,
        "delivered": result.delivered_photos,
        "created": result.created_photos,
        "contacts_processed": result.contacts_processed,
        "center_contacts": result.center_contacts,
    }


def run(workload: str, order_seed: int, trace: bool) -> Dict[str, Any]:
    from repro.experiments import config as repro_config
    from repro.experiments.runner import PAPER_SCHEMES, run_scenario

    tracer: Optional[Tracer] = None
    probe: Optional[SpeedProbe] = None
    if trace:
        import layers

        tracer = Tracer()
        layers.install_setup_layers(tracer)
    else:
        probe = SpeedProbe()
        probe.start()
    # (record, wall start, wall end, CPU seconds) of every timed call.
    windows: List[Tuple[Dict[str, Any], float, float, float]] = []

    spec = _spec(repro_config, workload)
    builds: List[Dict[str, Any]] = []
    scenario = None
    for _ in range(BUILDS[workload]):
        scenario = None  # free the previous build before timing the next
        started, cpu = time.perf_counter(), time.process_time()
        scenario = spec.build()
        ended = time.perf_counter()
        builds.append({"raw_s": ended - started})
        windows.append((builds[-1], started, ended, time.process_time() - cpu))

    setup_layers: Dict[str, Any] = {}
    if tracer is not None:
        import layers

        setup_layers = tracer.summary()
        tracer.unpatch()
        tracer.reset()
        layers.install_sim_layers(tracer)

    order_rng = random.Random(order_seed)
    orders: List[List[str]] = []
    passes_out: List[Dict[str, Dict[str, Any]]] = []
    # The root span, not a layer: its self time is what ``run_scenario``
    # does outside ``Simulation.run`` (``dtn.simulator``) and the other
    # layers, and is what the traced run leaves unaccounted.
    root = tracer.wrap("scenario", run_scenario) if tracer is not None else run_scenario
    for index in range(1 if trace else PASSES[workload]):
        schemes = list(PAPER_SCHEMES)
        order_rng.shuffle(schemes)
        if index:
            first = passes_out[0]
            schemes = [name for name in schemes
                       if name in REPEAT[workload] and "error" not in first[name]]
        orders.append(schemes)
        runs: Dict[str, Dict[str, Any]] = {}
        for name in schemes:
            kwargs = {"telemetry": _counting_telemetry(tracer)} if tracer is not None else {}
            started, cpu = time.perf_counter(), time.process_time()
            try:
                result = root(scenario, name, **kwargs)
                record = _result_record(result)
            except Exception as exc:  # noqa: BLE001 - a failed scheme is counted, not fatal
                record = {"error": f"{type(exc).__name__}: {exc}"}
            ended = time.perf_counter()
            record["raw_s"] = ended - started
            windows.append((record, started, ended, time.process_time() - cpu))
            runs[name] = record
        passes_out.append(runs)

    # Timings in reference seconds: CPU time, which leaves out the time
    # the host takes the CPU away, scaled by the probe's reading of how
    # fast the CPU ran meanwhile.  Raw wall seconds when tracing, where
    # only the traced/untraced ratio of wall times is used.
    if probe is not None:
        probe.stop()
    for record, started, ended, cpu_s in windows:
        record["time_s"] = (cpu_s * probe.scale(started, ended) if probe is not None
                            else record["raw_s"])

    out: Dict[str, Any] = {
        "workload": workload,
        "orders": orders,
        "photos": len(scenario.photo_arrivals),
        "setup_times": [build["time_s"] for build in builds],
        "setup_raw": [build["raw_s"] for build in builds],
        "passes": passes_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = {
            "layers": tracer.summary(),
            "setup_layers": setup_layers,
            "counts": dict(tracer.counts),
            "pools": tracer.samples.get("selection.reallocate.pool", []),
            "distinct": {key: len(values) for key, values in tracer.distinct.items()},
            "missing": tracer.missing,
            "builds": BUILDS[workload],
        }
        spans_dir = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(spans_dir, f"spans-{workload}.json"))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    out = run(args.workload, args.order_seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
