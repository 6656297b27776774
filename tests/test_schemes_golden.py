"""Golden scheme outputs: the five paper schemes on a tight-buffer scenario.

The buffer holds about seven photos and photos arrive fast, so creations
meet a full buffer constantly: both eviction sites -- the coverage
schemes' ``on_photo_created`` and ModifiedSpray's creation/``accept``
path -- decide the outcome.  The second case adds node crashes, whose
partial storage loss goes through ``NodeStorage.replace_all``.  Any change
to an eviction order, however it is computed, shows up here as a changed
float, delivered count or eviction count.

Regenerate after an intentional behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_schemes_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.dtn.faults import FaultPlan
from repro.dtn.simulator import Simulation
from repro.experiments.config import TRACE_MIT, ScenarioSpec
from repro.experiments.runner import PAPER_SCHEMES, run_scenario
from repro.routing.modified_spray import ModifiedSprayScheme

GOLDEN_PATH = Path(__file__).parent / "golden" / "schemes_seed0.json"

CASES = {
    "clean": None,
    "crashes": FaultPlan(
        seed=3, crash_rate_per_node_hour=0.05, mean_downtime_s=3600.0, storage_loss_fraction=0.5
    ),
}


def _spec(plan):
    return ScenarioSpec(
        trace_name=TRACE_MIT,
        storage_gb=0.03,
        photos_per_hour=300.0,
        scale=0.2,
        seed=0,
        fault_plan=plan,
    )


def _count_evictions(monkeypatch, counts):
    """Count photos a creation or a spray ``accept`` pushed out of storage."""
    created = Simulation.handle_photo_created
    accept = ModifiedSprayScheme.accept

    def evicted(storage, photo, before):
        return before + (1 if photo.photo_id in storage else 0) - len(storage)

    def handle_photo_created(sim, owner_id, photo, now):
        node = sim.nodes.get(owner_id)
        before = len(node.storage) if node is not None else 0
        dispatched = created(sim, owner_id, photo, now)
        if node is not None:
            counts["evicted_at_creation"] += evicted(node.storage, photo, before)
        return dispatched

    def counting_accept(scheme, receiver, photo):
        before = len(receiver.storage)
        accepted = accept(scheme, receiver, photo)
        counts["evicted_at_accept"] += evicted(receiver.storage, photo, before)
        return accepted

    monkeypatch.setattr(Simulation, "handle_photo_created", handle_photo_created)
    monkeypatch.setattr(ModifiedSprayScheme, "accept", counting_accept)


def _run(monkeypatch):
    counts = {}
    _count_evictions(monkeypatch, counts)
    outcome = {}
    for case, plan in CASES.items():
        scenario = _spec(plan).build()
        for scheme in PAPER_SCHEMES:
            counts.update(evicted_at_creation=0, evicted_at_accept=0)
            result = run_scenario(scenario, scheme)
            outcome[f"{case}/{scheme}"] = {
                "final_point": result.final_point_coverage,
                "final_aspect": result.final_aspect_coverage_deg,
                "delivered": result.delivered_photos,
                "created": result.created_photos,
                "contacts_processed": result.contacts_processed,
                **counts,
            }
    return outcome


def _text(outcome) -> str:
    return json.dumps(outcome, indent=2, sort_keys=True) + "\n"


def test_schemes_match_golden(monkeypatch):
    outcome = _run(monkeypatch)
    for case in CASES:
        for scheme in ("our-scheme", "no-metadata", "modified-spray"):
            assert outcome[f"{case}/{scheme}"]["evicted_at_creation"] > 0, (case, scheme)
        assert outcome[f"{case}/modified-spray"]["evicted_at_accept"] > 0, case

    if os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0"):
        GOLDEN_PATH.write_text(_text(outcome))
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")

    assert _text(outcome) == GOLDEN_PATH.read_text()
