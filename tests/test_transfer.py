"""Tests for transfer-plan construction and budget-limited execution."""

from __future__ import annotations

import math

import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.core.selection import NodeSelection, ReallocationResult, StorageSpec, greedy_reallocate
from repro.core.transfer import Transfer, build_transfer_plan, execute_transfer_plan

from helpers import MB, make_photo, photo_at_aspect

THETA = math.radians(30.0)


def make_result(first_id, first_photos, second_id, second_photos):
    return ReallocationResult(
        first=NodeSelection(node_id=first_id, photos=list(first_photos)),
        second=NodeSelection(node_id=second_id, photos=list(second_photos)),
    )


class TestBuildTransferPlan:
    def test_no_transfers_when_already_held(self):
        photo = make_photo(0, 0, 0)
        result = make_result(1, [photo], 2, [])
        plan = build_transfer_plan(result, {1: [photo], 2: []})
        assert len(plan) == 0

    def test_transfer_scheduled_for_missing_photo(self):
        photo = make_photo(0, 0, 0)
        result = make_result(1, [photo], 2, [])
        plan = build_transfer_plan(result, {1: [], 2: [photo]})
        assert len(plan) == 1
        transfer = plan.transfers[0]
        assert transfer.sender_id == 2
        assert transfer.receiver_id == 1
        assert transfer.photo == photo

    def test_first_node_needs_come_first(self):
        to_first = make_photo(0, 0, 0)
        to_second = make_photo(0, 0, 0)
        result = make_result(1, [to_first], 2, [to_second])
        plan = build_transfer_plan(result, {1: [to_second], 2: [to_first]})
        assert [t.receiver_id for t in plan] == [1, 2]

    def test_selection_order_preserved(self):
        photos = [make_photo(0, 0, 0) for _ in range(3)]
        result = make_result(1, photos, 2, [])
        plan = build_transfer_plan(result, {1: [], 2: photos})
        assert [t.photo for t in plan] == photos

    def test_both_selected_photo_transferred_once_per_receiver(self):
        shared = make_photo(0, 0, 0)
        result = make_result(1, [shared], 2, [shared])
        plan = build_transfer_plan(result, {1: [], 2: [shared]})
        # Node 1 needs it (from 2); node 2 already has it.
        assert len(plan) == 1
        assert plan.transfers[0].receiver_id == 1

    def test_total_bytes(self):
        photos = [make_photo(0, 0, 0, size_bytes=MB) for _ in range(3)]
        result = make_result(1, photos, 2, [])
        plan = build_transfer_plan(result, {1: [], 2: photos})
        assert plan.total_bytes == 3 * MB


class TestExecuteTransferPlan:
    def capacities(self, cap=100 * MB):
        return {1: cap, 2: cap}

    def test_unlimited_budget_realizes_solution(self):
        photo_a = make_photo(0, 0, 0)
        photo_b = make_photo(0, 0, 0)
        result = make_result(1, [photo_a], 2, [photo_b])
        holdings = {1: [photo_b], 2: [photo_a]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(plan, result, holdings, self.capacities(), None)
        assert not outcome.truncated
        assert {p.photo_id for p in outcome.final_collections[1]} == {photo_a.photo_id}
        assert {p.photo_id for p in outcome.final_collections[2]} == {photo_b.photo_id}

    def test_budget_truncates_in_order(self):
        photos = [make_photo(0, 0, 0, size_bytes=4 * MB) for _ in range(3)]
        result = make_result(1, photos, 2, [])
        holdings = {1: [], 2: photos}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(
            plan, result, holdings, self.capacities(), byte_budget=9 * MB
        )
        assert outcome.truncated
        # Only the first two photos fit in 9 MB.
        assert [t.photo for t in outcome.completed_transfers] == photos[:2]
        assert outcome.bytes_used == 8 * MB

    def test_truncated_contact_keeps_leftovers(self):
        wanted = make_photo(0, 0, 0, size_bytes=4 * MB)
        leftover = make_photo(0, 0, 0, size_bytes=4 * MB)
        result = make_result(1, [wanted], 2, [])
        holdings = {1: [leftover], 2: [wanted, leftover]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(
            plan, result, holdings, self.capacities(), byte_budget=2 * MB
        )
        assert outcome.truncated
        # Nothing was transferred; node 1 still holds its old photo.
        assert outcome.final_collections[1] == [leftover]

    def test_completed_plan_trims_to_selection(self):
        wanted = make_photo(0, 0, 0, size_bytes=4 * MB)
        stale = make_photo(0, 0, 0, size_bytes=4 * MB)
        result = make_result(1, [wanted], 2, [])
        holdings = {1: [stale], 2: [wanted]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(plan, result, holdings, self.capacities(), None)
        assert not outcome.truncated
        assert [p.photo_id for p in outcome.final_collections[1]] == [wanted.photo_id]
        assert outcome.final_collections[2] == []

    def test_eviction_makes_room(self):
        wanted = make_photo(0, 0, 0, size_bytes=4 * MB)
        stale = make_photo(0, 0, 0, size_bytes=4 * MB)
        result = make_result(1, [wanted], 2, [])
        holdings = {1: [stale], 2: [wanted]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(
            plan, result, holdings, {1: 4 * MB, 2: 4 * MB}, None
        )
        final_ids = {p.photo_id for p in outcome.final_collections[1]}
        assert final_ids == {wanted.photo_id}

    def test_eviction_drops_highest_id_first_and_keeps_order(self):
        older, newer, newest = (make_photo(0, 0, 0) for _ in range(3))
        wanted, cut_off = make_photo(0, 0, 0), make_photo(0, 0, 0)
        result = make_result(1, [wanted, cut_off], 2, [])
        holdings = {1: [newer, older, newest], 2: [wanted, cut_off]}
        plan = build_transfer_plan(result, holdings)
        # Room for three photos; the budget cuts the contact after the
        # first transfer, so the collection is not trimmed to the target.
        outcome = execute_transfer_plan(
            plan, result, holdings, {1: 12 * MB, 2: 12 * MB}, byte_budget=4 * MB
        )
        assert outcome.truncated
        assert [p.photo_id for p in outcome.final_collections[1]] == [
            newer.photo_id, older.photo_id, wanted.photo_id,
        ]

    def test_never_evicts_target_photos(self):
        keep = make_photo(0, 0, 0, size_bytes=4 * MB)
        incoming = make_photo(0, 0, 0, size_bytes=4 * MB)
        result = make_result(1, [keep, incoming], 2, [])
        holdings = {1: [keep], 2: [incoming]}
        plan = build_transfer_plan(result, holdings)
        # Capacity 4 MB: the incoming photo cannot fit without evicting a
        # target photo -> transfer skipped, keep stays.
        outcome = execute_transfer_plan(plan, result, holdings, {1: 4 * MB, 2: 4 * MB}, None)
        assert [p.photo_id for p in outcome.final_collections[1]] == [keep.photo_id]

    def test_unlimited_receiver_never_drops(self):
        wanted = make_photo(0, 0, 0)
        archive = make_photo(0, 0, 0)
        result = make_result(0, [wanted], 2, [])
        holdings = {0: [archive], 2: [wanted]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(plan, result, holdings, {0: None, 2: 100 * MB}, None)
        ids = {p.photo_id for p in outcome.final_collections[0]}
        assert ids == {archive.photo_id, wanted.photo_id}

    def test_delivered_to_helper(self):
        photo = make_photo(0, 0, 0)
        result = make_result(1, [photo], 2, [])
        holdings = {1: [], 2: [photo]}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(plan, result, holdings, self.capacities(), None)
        assert outcome.delivered_to(1) == [photo]
        assert outcome.delivered_to(2) == []


class TestEndToEndContact:
    def test_reallocation_plus_transfer_respects_everything(self):
        """A full contact: reallocate, plan, execute, check invariants."""
        index = CoverageIndex(
            PoIList.from_points([Point(0.0, 0.0), Point(400.0, 0.0)]),
            effective_angle=THETA,
        )
        photos_a = [photo_at_aspect(Point(0.0, 0.0), aspect_deg=d) for d in (0.0, 30.0)]
        photos_b = [photo_at_aspect(Point(400.0, 0.0), aspect_deg=d) for d in (90.0, 270.0)]
        spec_a = StorageSpec(1, 3 * 4 * MB, 0.8)
        spec_b = StorageSpec(2, 2 * 4 * MB, 0.4)
        result = greedy_reallocate(index, photos_a, photos_b, spec_a, spec_b)
        holdings = {1: photos_a, 2: photos_b}
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(
            plan, result, holdings, {1: spec_a.capacity_bytes, 2: spec_b.capacity_bytes},
            byte_budget=8 * MB,
        )
        for node_id, capacity in ((1, spec_a.capacity_bytes), (2, spec_b.capacity_bytes)):
            used = sum(p.size_bytes for p in outcome.final_collections[node_id])
            assert used <= capacity
        assert outcome.bytes_used <= 8 * MB
