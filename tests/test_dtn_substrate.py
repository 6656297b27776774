"""Tests for the DTN substrate: events, storage, nodes, command center."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import Photo
from repro.dtn.events import Event, EventKind, EventQueue
from repro.dtn.node import COMMAND_CENTER_ID, CommandCenter, DTNNode
from repro.dtn.storage import NodeStorage, StorageFullError

from helpers import MB, make_photo


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.CONTACT))
        queue.push(Event(1.0, EventKind.CONTACT))
        queue.push(Event(3.0, EventKind.CONTACT))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_kind_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(Event(1.0, EventKind.SAMPLE))
        queue.push(Event(1.0, EventKind.PHOTO_CREATED))
        queue.push(Event(1.0, EventKind.CONTACT))
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == [EventKind.PHOTO_CREATED, EventKind.CONTACT, EventKind.SAMPLE]

    def test_insertion_order_breaks_full_ties(self):
        queue = EventQueue()
        first = Event(1.0, EventKind.CONTACT, "a")
        second = Event(1.0, EventKind.CONTACT, "b")
        queue.push(first)
        queue.push(second)
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "b"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(Event(2.0, EventKind.END))
        assert queue.peek_time() == 2.0

    def test_drain_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.push(Event(t, EventKind.CONTACT))
        drained = list(queue.drain_until(2.0))
        assert [e.time for e in drained] == [1.0, 2.0]
        assert len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.CONTACT)

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(Event(0.0, EventKind.END))
        assert queue and len(queue) == 1


class TestNodeStorage:
    def test_add_and_remove(self):
        storage = NodeStorage(10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        storage.add(photo)
        assert photo.photo_id in storage
        assert storage.used_bytes == 4 * MB
        removed = storage.remove(photo.photo_id)
        assert removed == photo
        assert storage.used_bytes == 0

    def test_duplicate_add_is_noop(self):
        storage = NodeStorage(10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        storage.add(photo)
        storage.add(photo)
        assert storage.used_bytes == 4 * MB

    def test_overfull_add_raises(self):
        storage = NodeStorage(4 * MB)
        storage.add(make_photo(0, 0, 0, size_bytes=4 * MB))
        with pytest.raises(StorageFullError):
            storage.add(make_photo(0, 0, 0, size_bytes=1))

    def test_fits(self):
        storage = NodeStorage(4 * MB)
        assert storage.fits(make_photo(0, 0, 0, size_bytes=4 * MB))
        assert not storage.fits(make_photo(0, 0, 0, size_bytes=5 * MB))

    def test_unlimited_storage(self):
        storage = NodeStorage(None)
        assert storage.free_bytes is None
        for _ in range(100):
            storage.add(make_photo(0, 0, 0, size_bytes=10 * MB))
        assert len(storage) == 100

    def test_replace_all(self):
        storage = NodeStorage(20 * MB)
        storage.add(make_photo(0, 0, 0, size_bytes=4 * MB))
        replacement = [make_photo(0, 0, 0, size_bytes=4 * MB) for _ in range(2)]
        storage.replace_all(replacement)
        assert storage.photo_ids() == [p.photo_id for p in replacement]

    def test_replace_all_rejects_overflow(self):
        storage = NodeStorage(4 * MB)
        with pytest.raises(ValueError):
            storage.replace_all([make_photo(0, 0, 0, size_bytes=4 * MB) for _ in range(2)])

    def test_insertion_order_preserved(self):
        storage = NodeStorage(None)
        photos = [make_photo(0, 0, 0) for _ in range(3)]
        for photo in photos:
            storage.add(photo)
        assert storage.photos() == photos

    def test_remove_missing_returns_none(self):
        assert NodeStorage(None).remove(12345) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodeStorage(-1)


#: A pool of photos for the eviction-order tests, with a rank per photo
#: that ties often; every key ends in ``-photo_id``, as the schemes' do.
POOL = [make_photo(0, 0, 0) for _ in range(10)]
RANKS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
KEYS = (
    lambda photo: (RANKS[POOL.index(photo)], -photo.photo_id),
    lambda photo: (-RANKS[POOL.index(photo)], -photo.photo_id),
)

storage_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(POOL) - 1)),
        st.tuples(st.just("remove"), st.integers(0, len(POOL) - 1)),
        st.tuples(st.just("replace_all"), st.sets(st.integers(0, len(POOL) - 1))),
        st.tuples(st.just("least"), st.integers(0, len(KEYS) - 1)),
    ),
    max_size=60,
)


def _expected_least(storage, key):
    photos = storage.photos()
    return min(photos, key=key) if photos else None


class TestEvictionOrder:
    @settings(max_examples=300)
    @given(storage_ops)
    def test_least_equals_min_scan(self, ops):
        storage = NodeStorage(None)
        for op, arg in ops:
            if op == "add":
                storage.add(POOL[arg])
            elif op == "remove":
                storage.remove(POOL[arg].photo_id)
            elif op == "replace_all":
                storage.replace_all(POOL[i] for i in sorted(arg))
            else:
                assert storage.least(KEYS[arg]) is _expected_least(storage, KEYS[arg])
            # Peeking after every step keeps the heap alive across the
            # adds and removes, so stale and re-added entries are met.
            assert storage.least(KEYS[0]) is _expected_least(storage, KEYS[0])

    def test_empty_storage_has_no_least(self):
        storage = NodeStorage(None)
        assert storage.least(KEYS[0]) is None
        storage.add(POOL[0])
        storage.remove(POOL[0].photo_id)
        assert storage.least(KEYS[0]) is None

    def test_heap_stays_bounded_over_a_flood(self):
        """A 12-photo buffer under a long stream of creations, each of
        which evicts the least photo when it ranks higher, while contacts
        hand off stored photos from anywhere in the order."""
        rng = random.Random(7)
        rank = {}

        def key(photo):
            return rank[photo.photo_id], -photo.photo_id

        storage = NodeStorage(12 * 4 * MB)
        for _ in range(3000):
            if len(storage) and rng.random() < 0.3:
                storage.remove(rng.choice(storage.photo_ids()))
            photo = make_photo(0, 0, 0, size_bytes=4 * MB)
            rank[photo.photo_id] = rng.randrange(5)
            if not storage.fits(photo):
                victim = storage.least(key)
                assert victim is _expected_least(storage, key)
                if key(photo) <= key(victim):
                    continue
                storage.remove(victim.photo_id)
            storage.add(photo)
            assert len(storage._heap or ()) <= 2 * len(storage) + 1

    def test_unpickles_parent_shaped_state(self, monkeypatch):
        """A snapshot pickled before the eviction order existed holds only
        the three original attributes; it must load and evict correctly."""
        old = NodeStorage.__new__(NodeStorage)
        old.__dict__.update(
            capacity_bytes=4 * 4 * MB,
            _photos={photo.photo_id: photo for photo in POOL[:4]},
            _used=4 * 4 * MB,
        )
        with monkeypatch.context() as patch:
            # Pickle the way the class did without __getstate__.
            patch.delattr(NodeStorage, "__getstate__")
            data = pickle.dumps(old)

        storage = pickle.loads(data)
        assert storage.least(KEYS[0]).photo_id == _expected_least(storage, KEYS[0]).photo_id
        storage.remove(storage.least(KEYS[0]).photo_id)
        storage.add(POOL[5])
        assert storage.least(KEYS[0]).photo_id == _expected_least(storage, KEYS[0]).photo_id
        assert storage.used_bytes == 4 * 4 * MB

    def test_pickle_excludes_the_heap(self):
        storage = NodeStorage(None)
        for photo in POOL[:5]:
            storage.add(photo)
        before = pickle.dumps(storage)
        storage.least(KEYS[0])
        assert pickle.dumps(storage) == before
        restored = pickle.loads(before)
        assert restored.least(KEYS[1]).photo_id == _expected_least(storage, KEYS[1]).photo_id


class TestDTNNode:
    def test_reserved_id_rejected(self):
        with pytest.raises(ValueError):
            DTNNode(node_id=COMMAND_CENTER_ID, storage_bytes=MB)

    def test_delivery_probability_starts_zero(self):
        node = DTNNode(node_id=1, storage_bytes=MB)
        assert node.delivery_probability(now=0.0) == 0.0

    def test_delivery_probability_after_cc_encounter(self):
        node = DTNNode(node_id=1, storage_bytes=MB)
        node.prophet.on_encounter(COMMAND_CENTER_ID, now=0.0)
        assert node.delivery_probability(now=0.0) == pytest.approx(0.75)

    def test_snapshot_metadata(self):
        node = DTNNode(node_id=1, storage_bytes=10 * MB)
        photo = make_photo(0, 0, 0, size_bytes=4 * MB)
        node.storage.add(photo)
        node.record_contact(2, 0.0)
        node.record_contact(2, 100.0)
        snapshot = node.snapshot_metadata(now=100.0)
        assert snapshot.node_id == 1
        assert snapshot.photos == (photo,)
        assert snapshot.aggregate_rate == pytest.approx(0.01)
        assert snapshot.snapshot_time == 100.0

    def test_gateway_flag(self):
        assert DTNNode(2, MB, is_gateway=True).is_gateway
        assert not DTNNode(3, MB).is_gateway

    def test_scratch_is_per_node(self):
        a, b = DTNNode(1, MB), DTNNode(2, MB)
        a.scratch["x"] = 1
        assert "x" not in b.scratch


class TestCommandCenter:
    def test_receive_deduplicates(self):
        center = CommandCenter()
        photo = make_photo(0, 0, 0)
        assert center.receive(photo)
        assert not center.receive(photo)
        assert center.received_count == 1

    def test_unlimited_storage(self):
        center = CommandCenter()
        for _ in range(50):
            center.receive(make_photo(0, 0, 0, size_bytes=100 * MB))
        assert center.received_count == 50

    def test_snapshot_never_expires(self):
        center = CommandCenter()
        snapshot = center.snapshot_metadata(now=1000.0)
        assert snapshot.aggregate_rate == 0.0
        assert snapshot.delivery_probability == 1.0
        assert snapshot.is_valid_at(now=1e12)

    def test_photos_listing(self):
        center = CommandCenter()
        photo = make_photo(0, 0, 0)
        center.receive(photo)
        assert center.photos() == [photo]
