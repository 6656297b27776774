"""Background profiles memoized on their cache entry change no output.

``CoverageSelectionScheme`` builds each cached entry's background
``NodeProfile`` once and keeps it on the (immutable) ``CacheEntry``
through :meth:`CacheEntry.memoized`.  These tests run the same scenarios
with the memo in use and with every profile built fresh, and require
byte-identical results, the same entry pickles and the same service
snapshots either way.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.geometry import Point
from repro.dtn.events import EventKind
from repro.dtn.faults import FaultPlan
from repro.experiments.config import TRACE_MIT, ScenarioSpec
from repro.experiments.persistence import result_to_dict
from repro.experiments.runner import run_scenario
from repro.metadata_mgmt.cache import CacheEntry
from repro.routing import coverage_scheme
from repro.service import ServiceSession
from repro.service.client import iter_scenario_events

from helpers import photo_at_aspect

#: The crash plan of ``tests/test_schemes_golden.py``: partial storage
#: loss reaches the caches through ``NodeStorage.replace_all``.
CRASHES = FaultPlan(
    seed=3, crash_rate_per_node_hour=0.05, mean_downtime_s=3600.0, storage_loss_fraction=0.5
)


def _spec(plan):
    return ScenarioSpec(
        trace_name=TRACE_MIT,
        storage_gb=0.03,
        photos_per_hour=300.0,
        scale=0.2,
        seed=0,
        fault_plan=plan,
    )


@pytest.fixture()
def build_counter(monkeypatch):
    """Counts the profiles the scheme builds from cached entries."""
    calls = []
    build = coverage_scheme.build_node_profile

    def counting(index, node_id, photos, delivery_probability):
        calls.append(node_id)
        return build(index, node_id, photos, delivery_probability)

    monkeypatch.setattr(coverage_scheme, "build_node_profile", counting)
    return calls


def _without_memo(monkeypatch):
    monkeypatch.setattr(CacheEntry, "memoized", lambda self, key, build: build())


@pytest.mark.parametrize("scheme", ["our-scheme", "no-metadata"])
@pytest.mark.parametrize("plan", [None, CRASHES], ids=["clean", "crashes"])
def test_memo_is_byte_identical_to_fresh_profiles(monkeypatch, build_counter, scheme, plan):
    scenario = _spec(plan).build()
    memoized = json.dumps(result_to_dict(run_scenario(scenario, scheme)), sort_keys=True)
    memoized_builds = len(build_counter)

    build_counter.clear()
    _without_memo(monkeypatch)
    fresh = json.dumps(result_to_dict(run_scenario(scenario, scheme)), sort_keys=True)

    assert memoized == fresh
    if scheme == "our-scheme":
        # The memo is in use: the same run builds fewer profiles with it.
        assert memoized_builds < len(build_counter)
    else:
        # NoMetadata caches nothing, so there is nothing to memoize.
        assert memoized_builds == len(build_counter)


PHOTOS = tuple(photo_at_aspect(Point(0.0, 0.0), aspect) for aspect in (0.0, 90.0))


def _entry():
    return CacheEntry(
        node_id=4, photos=PHOTOS, aggregate_rate=0.01, snapshot_time=10.0,
        delivery_probability=0.3,
    )


class TestEntryMemo:
    def test_builds_once_per_key(self):
        entry = _entry()
        builds = []

        def build():
            builds.append(1)
            return object()

        first = entry.memoized("a", build)
        assert entry.memoized("a", build) is first
        assert len(builds) == 1
        assert entry.memoized("b", build) is not first
        assert len(builds) == 2

    def test_memo_is_not_part_of_equality(self):
        entry = _entry()
        entry.memoized("a", object)
        assert entry == _entry()
        assert hash(entry) == hash(_entry())

    def test_memoized_entry_pickles_like_a_fresh_one(self):
        entry = _entry()
        entry.memoized("profile", lambda: ["derived", 1.0])
        data = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        assert data == pickle.dumps(_entry(), protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(data)
        assert restored == entry
        assert "_memo" not in vars(restored)
        # The entry itself is untouched: its memo still serves.
        assert entry.memoized("profile", list) == ["derived", 1.0]


def _replay(scenario):
    session = ServiceSession("our-scheme", scenario.pois, scenario.config)
    for event in iter_scenario_events(scenario):
        if event.kind == EventKind.PHOTO_CREATED:
            owner_id, photo = event.payload
            session.ingest(owner_id, photo, event.time)
        else:
            node_a, node_b, duration = event.payload[:3]
            session.contact(node_a, node_b, event.time, duration)
    return session


def test_service_snapshot_holds_no_profile(monkeypatch):
    scenario = ScenarioSpec(scale=0.05, seed=3, sample_interval_hours=20.0).build()
    session = _replay(scenario)
    memos = [
        entry
        for node in session.simulation.nodes.values()
        for node_id in node.cache.known_nodes()
        for entry in [node.cache.get(node_id)]
        if "_memo" in vars(entry)
    ]
    assert memos, "the replay memoized no profile"
    data = pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"NodeProfile" not in data

    _without_memo(monkeypatch)
    assert pickle.dumps(_replay(scenario), protocol=pickle.HIGHEST_PROTOCOL) == data
