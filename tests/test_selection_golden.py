"""Golden selection: the seed-0 scenario's greedy outcome is pinned.

The differential and equivalence suites check that evaluators agree with
*each other*; this suite checks they agree with *yesterday* -- an absolute
regression anchor like ``tests/golden/metrics.prom``.  The golden file's
``python`` entry stores the selected photos' **pool indices** (photo ids
are a process-global counter and differ between runs) in greedy order
plus the per-step gains.

Regenerate after an intentional algorithm change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_selection_golden.py
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

import pytest

from repro.core.angular import AngularInterval, ArcSet
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import build_node_profile
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.core.selection import StorageSpec, greedy_select

from helpers import MB, photo_at_aspect

GOLDEN_PATH = Path(__file__).parent / "golden" / "selection_seed0.json"
GOLDEN_KEY = "python"


def _scenario():
    """The pinned seed-0 scenario: fixed PoIs (one aspect-restricted),
    a 40-photo pool, four background nodes, an 8-photo budget."""
    rng = random.Random(0)
    pois = PoIList(
        [
            PoI(location=Point(0.0, 0.0)),
            PoI(location=Point(500.0, 0.0), weight=2.0),
            PoI(
                location=Point(0.0, 500.0),
                important_aspects=ArcSet([AngularInterval.around(1.0, 1.2)]),
            ),
        ]
    )
    index = CoverageIndex(pois, effective_angle=math.radians(30.0))
    points = [poi.location for poi in pois]
    pool = [
        photo_at_aspect(rng.choice(points), rng.uniform(0.0, 360.0))
        for _ in range(40)
    ]
    background = [
        build_node_profile(
            index,
            100 + node,
            [photo_at_aspect(rng.choice(points), rng.uniform(0.0, 360.0)) for _ in range(5)],
            rng.uniform(0.2, 0.9),
        )
        for node in range(4)
    ]
    storage = StorageSpec(node_id=1, capacity_bytes=8 * 4 * MB, delivery_probability=0.7)
    return index, pool, background, storage


def _run():
    index, pool, background, storage = _scenario()
    index_of = {photo.photo_id: i for i, photo in enumerate(pool)}
    selection = greedy_select(index, pool, storage, background)
    return {
        "pool_indices": [index_of[photo.photo_id] for photo in selection.photos],
        "gains": [[gain.point, gain.aspect] for gain in selection.gains],
    }


def _regen_requested() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def test_selection_matches_golden():
    result = _run()
    assert result["pool_indices"], "the pinned scenario must select something"

    if _regen_requested():
        recorded = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        recorded[GOLDEN_KEY] = result
        GOLDEN_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}[{GOLDEN_KEY}]")

    want = json.loads(GOLDEN_PATH.read_text())[GOLDEN_KEY]
    assert result["pool_indices"] == want["pool_indices"]
    assert len(result["gains"]) == len(want["gains"])
    for got, expected in zip(result["gains"], want["gains"]):
        assert got[0] == pytest.approx(expected[0], rel=1e-9, abs=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=1e-9, abs=1e-12)
