"""Tests for the fault-injection subsystem (repro.dtn.faults).

Covers the three guarantees the subsystem makes:

1. **Zero-plan identity** -- an all-zero ``FaultPlan`` leaves the
   simulation byte-identical to running with no plan at all.
2. **Seeded determinism** -- two runs with the same seed and the same
   plan produce identical ``SimulationResult`` samples and counters.
3. **Graceful degradation** -- no scheme raises at any fault intensity,
   and every injected fault is visible in the counters.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList
from repro.dtn.faults import FaultCounters, FaultInjector, FaultPlan
from repro.dtn.simulator import Simulation, SimulationConfig
from repro.experiments.config import ScenarioSpec
from repro.experiments.robustness_study import run_robustness_study
from repro.experiments.runner import run_scenario
from repro.routing import scheme_names
from repro.metadata_mgmt.cache import CacheEntry, MetadataCache
from repro.routing.coverage_scheme import CoverageSelectionScheme
from repro.routing.direct import DirectDeliveryScheme
from repro.routing.epidemic import EpidemicScheme
from repro.traces.model import ContactRecord, ContactTrace
from repro.workload.photos import PhotoArrival

from helpers import MB, photo_at_aspect


def small_sim(contacts, arrivals, scheme=None, **config_overrides):
    defaults = dict(
        storage_bytes=10 * 4 * MB,
        bandwidth_bytes_per_s=2 * MB,
        unlimited_contacts=True,
        effective_angle=math.radians(30.0),
        sample_interval_s=100.0,
    )
    defaults.update(config_overrides)
    return Simulation(
        trace=ContactTrace([ContactRecord(*c) for c in contacts]),
        pois=PoIList([PoI(location=Point(0.0, 0.0))]),
        photo_arrivals=arrivals,
        scheme=scheme or CoverageSelectionScheme(),
        config=SimulationConfig(**defaults),
    )


class TestFaultPlanValidation:
    def test_default_plan_is_zero(self):
        assert FaultPlan().is_zero
        assert FaultPlan.none().is_zero

    def test_scaled_zero_is_zero(self):
        assert FaultPlan.scaled(0.0).is_zero

    def test_scaled_full_is_not_zero(self):
        plan = FaultPlan.scaled(1.0)
        assert not plan.is_zero
        assert plan.truncation_probability > 0.0
        assert plan.crash_rate_per_node_hour > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(truncation_probability=1.5),
            dict(truncation_probability=-0.1),
            dict(contact_drop_probability=2.0),
            dict(transfer_drop_probability=-1.0),
            dict(metadata_corruption_probability=1.1),
            dict(storage_loss_fraction=1.2),
            dict(bandwidth_jitter=-0.5),
            dict(max_contact_delay_s=-1.0),
            dict(crash_rate_per_node_hour=-0.1),
            dict(mean_downtime_s=0.0),
            dict(metadata_aging_s=-1.0),
        ],
    )
    def test_rejects_out_of_range_knobs(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_scaled_rejects_out_of_range_intensity(self):
        with pytest.raises(ValueError):
            FaultPlan.scaled(1.5)

    def test_with_seed(self):
        assert FaultPlan.scaled(0.5, seed=1).with_seed(9).seed == 9


class TestInjectorPrimitives:
    def test_perturbation_is_seed_deterministic(self):
        plan = FaultPlan.scaled(0.8, seed=3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        contacts = [(float(i * 10), 60.0) for i in range(50)]
        assert [a.perturb_contact(s, d) for s, d in contacts] == [
            b.perturb_contact(s, d) for s, d in contacts
        ]

    def test_truncation_never_extends_a_contact(self):
        injector = FaultInjector(FaultPlan(seed=1, truncation_probability=1.0))
        for i in range(30):
            start, duration, mult = injector.perturb_contact(10.0 * i, 60.0)
            assert start == 10.0 * i  # no delay configured
            assert 0.0 < duration <= 60.0
            assert mult == 1.0
        assert injector.counters.contacts_truncated == 30

    def test_zero_duration_contact_is_not_truncated(self):
        injector = FaultInjector(FaultPlan(seed=1, truncation_probability=1.0))
        _, duration, _ = injector.perturb_contact(5.0, 0.0)
        assert duration == 0.0
        assert injector.counters.contacts_truncated == 0

    def test_delay_only_moves_contacts_later(self):
        injector = FaultInjector(
            FaultPlan(seed=2, contact_delay_probability=1.0, max_contact_delay_s=100.0)
        )
        for i in range(30):
            start, duration, _ = injector.perturb_contact(50.0, 60.0)
            assert 50.0 <= start <= 150.0
            assert duration == 60.0

    def test_drop_probability_one_drops_everything(self):
        injector = FaultInjector(FaultPlan(seed=0, contact_drop_probability=1.0))
        assert injector.perturb_contact(1.0, 60.0) is None
        assert injector.counters.contacts_dropped == 1

    def test_crash_schedule_sorted_and_bounded(self):
        injector = FaultInjector(
            FaultPlan(seed=4, crash_rate_per_node_hour=2.0, mean_downtime_s=600.0)
        )
        schedule = injector.crash_schedule([1, 2, 3], end_time_s=3600.0 * 10)
        assert schedule
        times = [c.time for c in schedule]
        assert times == sorted(times)
        for crash in schedule:
            assert 0.0 <= crash.time < 3600.0 * 10
            assert crash.restart_time > crash.time

    def test_surviving_photos_extremes(self):
        photos = [photo_at_aspect(Point(0.0, 0.0), float(d)) for d in (0, 90, 180)]
        wipe = FaultInjector(FaultPlan(seed=0, storage_loss_fraction=1.0))
        assert wipe.surviving_photos(photos) == []
        assert wipe.counters.photos_lost_to_crash == 3
        keep = FaultInjector(FaultPlan(seed=0, storage_loss_fraction=0.0))
        assert keep.surviving_photos(photos) == photos
        assert keep.counters.photos_lost_to_crash == 0

    def test_transfer_survival_counts_drops(self):
        injector = FaultInjector(FaultPlan(seed=0, transfer_drop_probability=1.0))
        assert not injector.transfer_survives()
        assert injector.counters.transfers_dropped == 1
        clean = FaultInjector(FaultPlan(seed=0))
        assert clean.transfer_survives()

    def test_counters_aggregate(self):
        counters = FaultCounters(crashes=2, transfers_dropped=3)
        assert counters.total == 5
        assert counters.as_dict()["crashes"] == 2


class TestMetadataCorruption:
    def entry(self, snapshot_time=1000.0):
        photos = tuple(photo_at_aspect(Point(0.0, 0.0), float(d)) for d in (0, 120))
        return CacheEntry(
            node_id=3,
            photos=photos,
            aggregate_rate=1.0 / 3600.0,
            snapshot_time=snapshot_time,
            delivery_probability=0.4,
        )

    def test_degraded_entry_ages_and_loses_photos(self):
        entry = self.entry()
        corrupted = entry.degraded(photos=entry.photos[:1], age_s=7200.0)
        assert corrupted.snapshot_time == entry.snapshot_time - 7200.0
        assert len(corrupted.photos) == 1
        assert corrupted.node_id == entry.node_id

    def test_degraded_rejects_negative_age(self):
        with pytest.raises(ValueError):
            self.entry().degraded(photos=(), age_s=-1.0)

    def test_corruption_routes_into_eq1_expiry(self):
        """A corrupted snapshot fails the Eq. 1 check the clean one passes."""
        entry = self.entry(snapshot_time=1000.0)
        injector = FaultInjector(
            FaultPlan(seed=0, metadata_corruption_probability=1.0, metadata_aging_s=50_000.0)
        )
        corrupted = injector.maybe_corrupt_snapshot(entry)
        assert injector.counters.metadata_snapshots_corrupted == 1
        now = 1500.0
        threshold = 0.8
        assert entry.is_valid_at(now, threshold)
        assert not corrupted.is_valid_at(now, threshold)
        # And the receiving cache's purge path actually removes it.
        cache = MetadataCache(owner_id=7, threshold=threshold)
        cache.store(corrupted)
        assert cache.purge_stale(now) == 1
        assert corrupted.node_id not in cache

    def test_zero_probability_returns_entry_unchanged(self):
        entry = self.entry()
        injector = FaultInjector(FaultPlan(seed=0))
        assert injector.maybe_corrupt_snapshot(entry) is entry


class TestZeroPlanIdentity:
    """Acceptance criterion: an all-zero plan is byte-identical to no plan."""

    @pytest.mark.parametrize("scheme_name", ["our-scheme", "spray-and-wait", "epidemic"])
    def test_zero_plan_matches_no_plan_on_seed_scenario(self, scheme_name):
        scenario = ScenarioSpec(scale=0.1, seed=3, photos_per_hour=80.0).build()

        def run(plan):
            config = dataclasses.replace(scenario.config, fault_plan=plan)
            patched = dataclasses.replace(scenario, config=config)
            return run_scenario(patched, scheme_name)

        base = run(None)
        zero = run(FaultPlan())
        assert base.samples == zero.samples
        assert base.delivered_photos == zero.delivered_photos
        assert base.contacts_processed == zero.contacts_processed
        assert base.delivery_latencies_s == zero.delivery_latencies_s
        assert zero.fault_counters.total == 0


class TestSeededDeterminism:
    """Acceptance criterion: same seed + same plan => byte-identical samples."""

    def test_identical_runs_identical_results(self):
        scenario = ScenarioSpec(
            scale=0.1, seed=5, photos_per_hour=80.0, fault_intensity=0.8
        ).build()
        first = run_scenario(scenario, "our-scheme")
        second = run_scenario(scenario, "our-scheme")
        assert first.samples == second.samples
        assert first.fault_counters == second.fault_counters
        assert first.delivery_latencies_s == second.delivery_latencies_s
        assert first.fault_counters.total > 0  # faults actually fired

    def test_different_fault_seed_changes_the_run(self):
        scenario = ScenarioSpec(scale=0.1, seed=5, photos_per_hour=80.0).build()

        def run(fault_seed):
            plan = FaultPlan.scaled(0.8, seed=fault_seed)
            config = dataclasses.replace(scenario.config, fault_plan=plan)
            patched = dataclasses.replace(scenario, config=config)
            return run_scenario(patched, "our-scheme")

        a, b = run(1), run(2)
        # Different fault streams perturb different contacts.
        assert a.fault_counters != b.fault_counters or a.samples != b.samples


class TestCrashRestartMechanics:
    def test_down_node_misses_contacts_and_photos(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = small_sim(
            contacts=[(100.0, 1, 2, 60.0), (300.0, 0, 1, 60.0)],
            arrivals=[PhotoArrival(150.0, 1, photo)],
            scheme=DirectDeliveryScheme(),
            fault_plan=FaultPlan(seed=0, crash_rate_per_node_hour=1e-9),
        )
        # Deterministic override: node 1 is down from t=50 to t=200.
        from repro.dtn.events import Event, EventKind

        sim._queue.push(Event(50.0, EventKind.NODE_CRASH, (1, 200.0)))
        result = sim.run()
        counters = result.fault_counters
        assert counters.crashes == 1
        assert counters.restarts == 1
        assert counters.contacts_skipped_node_down == 1  # the t=100 contact
        assert counters.photos_missed_while_down == 1  # the t=150 photo
        assert result.contacts_processed == 0
        # The t=300 uplink still ran after the restart.
        assert result.center_contacts == 1

    def test_crash_wipes_storage_and_protocol_state(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = small_sim(
            contacts=[(500.0, 1, 2, 60.0)],
            arrivals=[PhotoArrival(10.0, 1, photo)],
            fault_plan=FaultPlan(
                seed=0, crash_rate_per_node_hour=1e-9, storage_loss_fraction=1.0
            ),
        )
        from repro.dtn.events import Event, EventKind

        sim._queue.push(Event(100.0, EventKind.NODE_CRASH, (1, 150.0)))
        result = sim.run()
        assert result.fault_counters.photos_lost_to_crash == 1
        assert len(sim.nodes[1].storage) == 0
        assert sim.nodes[1].alive

    def test_crash_while_down_is_merged(self):
        sim = small_sim(
            contacts=[(500.0, 1, 2, 60.0)],
            arrivals=[],
            fault_plan=FaultPlan(seed=0, crash_rate_per_node_hour=1e-9),
        )
        from repro.dtn.events import Event, EventKind

        sim._queue.push(Event(50.0, EventKind.NODE_CRASH, (1, 400.0)))
        sim._queue.push(Event(60.0, EventKind.NODE_CRASH, (1, 80.0)))
        result = sim.run()
        assert result.fault_counters.crashes == 1
        assert result.fault_counters.restarts == 1

    def test_node_crash_and_restart_api(self):
        sim = small_sim(contacts=[(10.0, 1, 2, 5.0)], arrivals=[])
        node = sim.nodes[1]
        node.cache.store(
            CacheEntry(
                node_id=2, photos=(), aggregate_rate=0.0,
                snapshot_time=1.0, delivery_probability=0.5,
            )
        )
        node.scratch["spray_copies"] = {7: 4}
        node.crash(surviving_photos=[], wipe_protocol_state=True)
        assert not node.alive
        assert node.crash_count == 1
        assert len(node.cache) == 0
        assert node.scratch == {}
        node.restart()
        assert node.alive

    def test_simulation_crash_and_restart_node(self):
        sim = small_sim(
            contacts=[(10.0, 1, 2, 5.0)],
            arrivals=[],
            fault_plan=FaultPlan(seed=0, crash_rate_per_node_hour=1e-9),
        )
        counters = sim.result.fault_counters
        assert not sim.crash_node(99)  # unknown node
        assert not sim.restart_node(1)  # already up
        assert sim.crash_node(1)
        assert not sim.nodes[1].alive
        assert not sim.crash_node(1)  # already down: the crash merges
        assert (counters.crashes, counters.restarts) == (1, 0)
        assert sim.restart_node(1)
        assert sim.nodes[1].alive
        assert (counters.crashes, counters.restarts) == (1, 1)


class TestTransferFaultsEndToEnd:
    def test_total_transfer_loss_delivers_nothing(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = small_sim(
            contacts=[(100.0, 0, 1, 600.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
            scheme=EpidemicScheme(),
            fault_plan=FaultPlan(seed=0, transfer_drop_probability=1.0),
        )
        result = sim.run()
        assert result.delivered_photos == 0
        assert result.fault_counters.transfers_dropped >= 1

    def test_direct_scheme_retries_failed_uplink(self):
        photo = photo_at_aspect(Point(0.0, 0.0), 0.0)
        sim = small_sim(
            contacts=[(100.0, 0, 1, 600.0), (200.0, 0, 1, 600.0)],
            arrivals=[PhotoArrival(0.0, 1, photo)],
            scheme=DirectDeliveryScheme(),
            fault_plan=FaultPlan(seed=0, transfer_drop_probability=0.5),
        )
        result = sim.run()
        # Whatever the draws, the photo is either delivered or still held
        # for the next visit -- never silently destroyed.
        held = photo.photo_id in sim.nodes[1].storage
        delivered = result.delivered_photos == 1
        assert held != delivered


class TestGracefulDegradation:
    """Acceptance criterion: no scheme crashes at any tested intensity."""

    @pytest.mark.parametrize("intensity", [0.25, 1.0])
    def test_every_registered_scheme_survives_faults(self, intensity):
        scenario = ScenarioSpec(
            scale=0.1, seed=2, photos_per_hour=60.0, fault_intensity=intensity
        ).build()
        for name in scheme_names():
            result = run_scenario(scenario, name)
            assert result.samples, name
            assert 0.0 <= result.final_point_coverage <= 1.0, name

    def test_robustness_study_runs_and_degrades(self):
        outcome = run_robustness_study(
            scale=0.1,
            num_runs=1,
            seed=0,
            schemes=("our-scheme", "spray-and-wait"),
            intensities=(0.0, 1.0),
        )
        for name in ("our-scheme", "spray-and-wait"):
            series = outcome.point_coverage[name]
            assert len(series) == 2
            # Heavy faults never help.
            assert series[1] <= series[0] + 1e-9
        assert outcome.fault_totals[0] == {} or all(
            v == 0 for v in outcome.fault_totals[0].values()
        )
        assert sum(outcome.fault_totals[1].values()) > 0
