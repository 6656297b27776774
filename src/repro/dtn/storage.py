"""Node photo storage with a byte capacity (the paper's ``S_a`` constraint)."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.metadata import Photo

__all__ = ["NodeStorage", "StorageFullError"]


class StorageFullError(Exception):
    """Raised when a photo cannot be stored and the caller forbids eviction."""


class NodeStorage:
    """A bounded photo store.

    Photos are keyed by ``photo_id``; insertion order is preserved (useful
    for FIFO drop policies).  ``capacity_bytes=None`` means unlimited (the
    command center and the BestPossible scheme use this).

    :meth:`least` keeps an eviction order: a lazy-deletion binary min-heap
    of ``(key(photo), photo_id)`` entries, built on the first call.  Until
    then ``add`` pays nothing for it.  A removed photo's entry stays in
    the heap as a stale entry until a peek reaches it, and the heap is
    compacted once stale entries outnumber live ones.  The heap is derived
    state: ``replace_all`` drops it, and it is never pickled.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._photos: Dict[int, Photo] = {}
        self._used = 0
        self._heap: Optional[List[Tuple[Any, int]]] = None
        self._heap_key: Optional[Callable[[Photo], Any]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_heap"], state["_heap_key"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._heap = None
        self._heap_key = None

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> Optional[int]:
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self._used

    def fits(self, photo: Photo) -> bool:
        if self.capacity_bytes is None:
            return True
        return self._used + photo.size_bytes <= self.capacity_bytes

    def add(self, photo: Photo) -> None:
        """Store *photo*; raises :class:`StorageFullError` if it cannot fit."""
        if photo.photo_id in self._photos:
            return
        if not self.fits(photo):
            raise StorageFullError(
                f"photo {photo.photo_id} ({photo.size_bytes} B) exceeds free space"
            )
        self._photos[photo.photo_id] = photo
        self._used += photo.size_bytes
        if self._heap is not None:
            heapq.heappush(self._heap, (self._heap_key(photo), photo.photo_id))

    def remove(self, photo_id: int) -> Optional[Photo]:
        photo = self._photos.pop(photo_id, None)
        if photo is not None:
            self._used -= photo.size_bytes
            heap = self._heap
            if heap is not None and len(heap) > 2 * len(self._photos):
                # Stale entries outnumber live ones: keep one entry per
                # stored photo (a re-added photo may have two).
                live = {entry[1]: entry for entry in heap if entry[1] in self._photos}
                self._heap = list(live.values())
                heapq.heapify(self._heap)
        return photo

    def least(self, key: Callable[[Photo], Any]) -> Optional[Photo]:
        """The stored photo with the smallest ``key(photo)``, or ``None``.

        Equals ``min(self.photos(), key=key)`` for a *key* that depends on
        the photo alone and never ties (end it in ``-photo_id``).  Passing
        a key unequal to the last one rebuilds the heap.
        """
        heap = self._heap
        if heap is None or key != self._heap_key:
            heap = [(key(photo), photo_id) for photo_id, photo in self._photos.items()]
            heapq.heapify(heap)
            self._heap = heap
            self._heap_key = key
        photos = self._photos
        while heap and heap[0][1] not in photos:
            heapq.heappop(heap)
        return photos[heap[0][1]] if heap else None

    def replace_all(self, photos: Iterable[Photo]) -> None:
        """Set the collection wholesale (used after a completed reallocation).

        Raises ``ValueError`` if the photos exceed capacity -- callers are
        expected to hand in a feasible collection.
        """
        photo_list = list(photos)
        total = sum(p.size_bytes for p in photo_list)
        if self.capacity_bytes is not None and total > self.capacity_bytes:
            raise ValueError(f"collection of {total} B exceeds capacity {self.capacity_bytes} B")
        self._photos = {p.photo_id: p for p in photo_list}
        self._used = sum(p.size_bytes for p in self._photos.values())
        self._heap = None

    def photos(self) -> List[Photo]:
        """The stored photos, insertion-ordered (a copy)."""
        return list(self._photos.values())

    def photo_ids(self) -> List[int]:
        return list(self._photos.keys())

    def __contains__(self, photo_id: int) -> bool:
        return photo_id in self._photos

    def __len__(self) -> int:
        return len(self._photos)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return f"NodeStorage(n={len(self)}, used={self._used}/{cap})"
