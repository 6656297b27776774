#!/usr/bin/env python
"""Benchmark the selection hot path: CELF lazy greedy vs naive rebuild.

For every cell of a ``(pool_size, m)`` grid this script times two
implementations of one contact's photo selection (problem (3), Section
III-D):

* **optimized** -- :func:`repro.core.selection.greedy_select`: the lazy
  CELF heap over one incremental
  :class:`~repro.core.expected_coverage.SelectionEvaluator`.  Timed twice,
  without telemetry and inside an activated :class:`~repro.obs.SimTelemetry`
  (whose registry supplies the ``gain_evals`` counts and profiler phase
  timings).
* **baseline** -- :func:`repro.core.selection.greedy_select_reference`:
  a fresh evaluator per greedy round, every remaining candidate
  re-evaluated.  This is the naive full-rebuild cost the optimized path
  is measured against.

``m`` is the size of the frozen node set ``M``: the number of background
:class:`~repro.core.expected_coverage.NodeProfile` objects whose arcs
densify the per-PoI survival functions.

Both legs must select the same photos with bitwise-equal gains (they
query the same evaluator); disagreement is a FAIL exit.

The summary is written to ``BENCH_core.json`` -- the committed performance
baseline.  CI re-runs the bench with ``--quick --check BENCH_core.json``
and fails when any matching cell's speedup regresses by more than
``--max-regression`` (default 15%): speedups are ratios of two legs timed
on the same machine, so the gate transfers across hardware.

Run:  python scripts/bench_core.py [--quick] [--repeats 3]
                                   [--check BENCH_core.json] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import time
from pathlib import Path

from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import build_node_profile
from repro.core.geometry import Point
from repro.core.metadata import Photo, PhotoMetadata
from repro.core.poi import PoIList
from repro.core.selection import StorageSpec, greedy_select, greedy_select_reference
from repro.obs import SimTelemetry
from repro.obs.runtime import activated

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_core.json"
SCHEMA_VERSION = 3

PHOTO_BYTES = 4 * 1024 * 1024
CAPACITY_PHOTOS = 16
POOL_SIZES = (50, 200, 1000)
M_VALUES = (4, 8, 16)
QUICK_POOL_SIZES = (50, 1000)
QUICK_M_VALUES = (4, 16)
#: contacts per cell, keyed by pool size -- large pools amortize more.
CONTACTS = {50: 16, 200: 8, 1000: 3}
BACKGROUND_PHOTOS_PER_NODE = 20


def _photo_at(poi_location: Point, aspect_deg: float, rng: random.Random) -> Photo:
    """A photo looking at *poi_location* from the given aspect angle."""
    aspect = math.radians(aspect_deg)
    distance = rng.uniform(30.0, 80.0)
    camera = Point(
        poi_location.x + distance * math.cos(aspect),
        poi_location.y - distance * math.sin(aspect),
    )
    return Photo(
        metadata=PhotoMetadata(
            location=camera,
            coverage_range=100.0,
            field_of_view=math.radians(60.0),
            orientation=camera.bearing_to(poi_location),
        ),
        size_bytes=PHOTO_BYTES,
    )


def build_scenarios(pool_size: int, m: int, contacts: int, seed: int):
    """Deterministic contact scenarios: (index, pool, background, storage)."""
    rng = random.Random(seed * 1_000_003 + pool_size * 101 + m)
    points = [Point(600.0 * i, 600.0 * j) for i in range(3) for j in range(3)]
    index = CoverageIndex(PoIList.from_points(points), effective_angle=math.radians(30.0))
    scenarios = []
    for contact in range(contacts):
        pool = [
            _photo_at(rng.choice(points), rng.uniform(0.0, 360.0), rng)
            for _ in range(pool_size)
        ]
        background = [
            build_node_profile(
                index,
                10_000 + contact * 100 + node,
                [
                    _photo_at(rng.choice(points), rng.uniform(0.0, 360.0), rng)
                    for _ in range(BACKGROUND_PHOTOS_PER_NODE)
                ],
                rng.uniform(0.2, 0.9),
            )
            for node in range(m)
        ]
        storage = StorageSpec(
            node_id=contact + 1,
            capacity_bytes=CAPACITY_PHOTOS * PHOTO_BYTES,
            delivery_probability=rng.uniform(0.4, 0.95),
        )
        index.precompute(pool)  # geometry cost paid outside the timed region
        scenarios.append((index, pool, background, storage))
    return scenarios


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    rank = fraction * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    weight = rank - lo
    return sorted_values[lo] * (1.0 - weight) + sorted_values[hi] * weight


def _time_contacts(scenarios, run_one, repeats: int):
    """Best-of-*repeats* total elapsed plus that repeat's per-contact times."""
    best_elapsed = float("inf")
    best_laps = []
    selections = None
    for _ in range(max(1, repeats)):
        laps = []
        outputs = []
        started = time.perf_counter()
        for scenario in scenarios:
            lap_start = time.perf_counter()
            outputs.append(run_one(scenario))
            laps.append(time.perf_counter() - lap_start)
        elapsed = time.perf_counter() - started
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            best_laps = laps
            selections = outputs
    laps_ms = sorted(lap * 1000.0 for lap in best_laps)
    return {
        "elapsed_s": round(best_elapsed, 6),
        "throughput_cps": round(len(scenarios) / best_elapsed, 3),
        "p50_ms": round(_percentile(laps_ms, 0.50), 4),
        "p95_ms": round(_percentile(laps_ms, 0.95), 4),
    }, selections


def _gain_evals(telemetry: SimTelemetry) -> int:
    counter = telemetry.registry.get("repro_selection_gain_evaluations_total")
    return int(counter.value) if counter is not None else 0


def bench_cell(pool_size: int, m: int, repeats: int, seed: int):
    contacts = CONTACTS[pool_size]
    scenarios = build_scenarios(pool_size, m, contacts, seed)

    def optimized(scenario):
        index, pool, background, storage = scenario
        return greedy_select(index, pool, storage, background)

    def baseline(scenario):
        index, pool, background, storage = scenario
        return greedy_select_reference(index, pool, storage, background)

    off_stats, off_selections = _time_contacts(scenarios, optimized, repeats)
    telemetry = SimTelemetry()
    with activated(telemetry):
        on_stats, _ = _time_contacts(scenarios, optimized, repeats)
    # The counter accumulates over every repeat; report one pass.
    evals = _gain_evals(telemetry) // max(1, repeats)
    on_stats["gain_evals"] = evals
    on_stats["gain_evals_per_s"] = (
        round(evals / on_stats["elapsed_s"], 1) if on_stats["elapsed_s"] > 0 else 0.0
    )

    base_stats, base_selections = _time_contacts(scenarios, baseline, repeats)

    for opt, base in zip(off_selections, base_selections):
        same_photos = [p.photo_id for p in opt.photos] == [p.photo_id for p in base.photos]
        if not same_photos or opt.gains != base.gains:
            raise SystemExit(
                f"FAIL: optimized selection differs from the baseline "
                f"(pool={pool_size}, m={m})"
            )

    speedup = (
        base_stats["elapsed_s"] / off_stats["elapsed_s"]
        if off_stats["elapsed_s"] > 0
        else float("inf")
    )
    cell = {
        "pool_size": pool_size,
        "m": m,
        "contacts": contacts,
        "optimized": {"telemetry_off": off_stats, "telemetry_on": on_stats},
        "baseline": base_stats,
        "speedup": round(speedup, 3),
    }
    print(
        f"  pool={pool_size:<5} m={m:<3} "
        f"opt {off_stats['elapsed_s'] * 1000:8.2f}ms  "
        f"base {base_stats['elapsed_s'] * 1000:8.2f}ms  "
        f"speedup {speedup:6.2f}x"
    )
    return cell


def check_against(cells, baseline_path: Path, max_regression: float) -> None:
    """Fail when speedups regressed beyond the budget vs the recorded baseline.

    Speedups are ratios of two legs timed back-to-back, so they transfer
    across machines -- but each cell still carries scheduler noise well
    above a few percent.  The gate therefore compares the **geometric
    mean** of per-cell ratios (fresh / recorded) against the budget, and
    only fails an individual cell when it collapses below half its
    recorded speedup (a real regression, not jitter).
    """
    recorded = json.loads(baseline_path.read_text())
    by_key = {(c["pool_size"], c["m"]): c["speedup"] for c in recorded.get("cells", [])}
    failures = []
    ratios = []
    for cell in cells:
        key = (cell["pool_size"], cell["m"])
        want = by_key.get(key)
        if want is None or want <= 0:
            continue
        ratio = cell["speedup"] / want
        ratios.append(ratio)
        print(
            f"  {key}: fresh {cell['speedup']:.3f}x vs recorded {want:.3f}x "
            f"(ratio {ratio:.3f})"
        )
        if ratio < 0.5:
            failures.append(
                f"  {key}: speedup {cell['speedup']:.3f} collapsed below half "
                f"the recorded {want:.3f}"
            )
    if not ratios:
        raise SystemExit(f"FAIL: no cells in {baseline_path} match this run's grid")
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print(
        f"checked {len(ratios)} cell(s) against {baseline_path}: "
        f"geomean ratio {geomean:.3f} (budget {1.0 - max_regression:.2f})"
    )
    if geomean < 1.0 - max_regression:
        failures.append(
            f"  geomean speedup ratio {geomean:.3f} below {1.0 - max_regression:.2f}"
        )
    if failures:
        raise SystemExit("FAIL: speedup regressions:\n" + "\n".join(failures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="corner cells only ({50,1000} x {4,16}) -- the CI smoke grid",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE",
        help="compare speedups against a recorded BENCH_core.json and fail "
        "on regression instead of treating this run as the new baseline",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.15,
        help="allowed fractional speedup drop per cell in --check mode",
    )
    args = parser.parse_args()

    pool_sizes = QUICK_POOL_SIZES if args.quick else POOL_SIZES
    m_values = QUICK_M_VALUES if args.quick else M_VALUES
    print(
        f"benchmarking pools={list(pool_sizes)} m={list(m_values)} "
        f"repeats={args.repeats} on {os.cpu_count()} CPU(s)"
    )

    cells = [
        bench_cell(pool_size, m, args.repeats, args.seed)
        for pool_size in pool_sizes
        for m in m_values
    ]

    min_speedup = min(cell["speedup"] for cell in cells)
    largest = max(pool_sizes)
    deepest = max(m_values)
    at_largest = next(
        cell["speedup"]
        for cell in cells
        if cell["pool_size"] == largest and cell["m"] == deepest
    )
    print(
        f"min cell speedup {min_speedup:.3f}x, "
        f"pool={largest}/m={deepest}: {at_largest:.3f}x"
    )

    if args.check is not None:
        check_against(cells, args.check, args.max_regression)
        print("OK: no speedup regressions")
        return

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "scripts/bench_core.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "pool_sizes": list(pool_sizes),
        "m_values": list(m_values),
        "capacity_photos": CAPACITY_PHOTOS,
        "background_photos_per_node": BACKGROUND_PHOTOS_PER_NODE,
        "cells": cells,
        "min_cell_speedup": round(min_speedup, 3),
        "speedup_at_largest_pool": round(at_largest, 3),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
