"""The greedy photo selection (reallocation) algorithm of Section III-D.

When two nodes meet, the union of their photo collections forms a
*selection pool*; the algorithm reallocates the pool to the two storages to
maximize expected coverage.  The reallocation problem is NP-hard (the 0-1
knapsack reduces to it), so the paper solves it greedily:

1. The node with the higher delivery probability selects first, filling its
   storage photo-by-photo, each step adding the photo with the largest
   marginal expected-coverage gain (``max C_ex(F_a, {})`` subject to the
   storage bound), stopping early when no photo yields a strictly positive
   gain.
2. The second node then selects from the *same* pool, with the first
   node's selection frozen into the background (``max C_ex(F_a, F_b)``).
   A photo may be selected by both nodes when it is valuable but the first
   node's delivery probability is low.

Both nodes' cached metadata of third-party nodes and of the command center
participates as fixed background (Section III-B/III-C), so redundant photos
-- including photos the command center already holds -- get zero gain.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.runtime import active_telemetry
from .coverage import CoverageValue
from .coverage_index import CoverageIndex
from .expected_coverage import NodeProfile, SelectionEvaluator
from .metadata import Photo

__all__ = [
    "StorageSpec",
    "NodeSelection",
    "ReallocationResult",
    "greedy_reallocate",
    "greedy_select",
    "greedy_select_reference",
]


@dataclass(frozen=True)
class StorageSpec:
    """A node's storage constraint and delivery probability for selection."""

    node_id: int
    capacity_bytes: Optional[int]
    delivery_probability: float

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {self.capacity_bytes}")
        if not 0.0 <= self.delivery_probability <= 1.0:
            raise ValueError(
                f"delivery probability must be in [0, 1], got {self.delivery_probability}"
            )


@dataclass
class NodeSelection:
    """Ordered selection outcome for one node.

    ``photos`` preserves greedy selection order -- the transfer scheduler
    relies on this order so that truncated contacts still move the most
    valuable photos first.  ``gains`` records the expected-coverage gain
    realized at each greedy step (non-increasing in lexicographic order is
    *not* guaranteed because gains interact, but each is positive).
    """

    node_id: int
    photos: List[Photo] = field(default_factory=list)
    gains: List[CoverageValue] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(photo.size_bytes for photo in self.photos)

    @property
    def total_gain(self) -> CoverageValue:
        total = CoverageValue.ZERO
        for gain in self.gains:
            total = total + gain
        return total

    def photo_ids(self) -> set:
        return {photo.photo_id for photo in self.photos}


@dataclass
class ReallocationResult:
    """The solution of one contact's photo reallocation problem."""

    first: NodeSelection
    second: NodeSelection

    def selection_for(self, node_id: int) -> NodeSelection:
        if self.first.node_id == node_id:
            return self.first
        if self.second.node_id == node_id:
            return self.second
        raise KeyError(f"node {node_id} did not participate in this reallocation")


def greedy_select(
    index: CoverageIndex,
    pool: Sequence[Photo],
    storage: StorageSpec,
    background: Sequence[NodeProfile],
    require_positive_gain: bool = True,
) -> NodeSelection:
    """Fill one node's storage greedily from *pool* (problem (3) of the paper).

    Each step scans the remaining pool and commits the photo with the
    lexicographically largest marginal expected gain.  Ties break toward
    the smaller photo, then the smaller ``photo_id`` (deterministic runs).
    Selection stops when the storage cannot fit any remaining photo or --
    when *require_positive_gain* -- no photo strictly improves expected
    coverage.
    """
    evaluator = SelectionEvaluator(index, background, storage.delivery_probability)
    selection = NodeSelection(node_id=storage.node_id)
    budget = storage.capacity_bytes

    # Telemetry (repro.obs): the active sink is None on uninstrumented
    # runs, so the disabled cost is one global read plus local counters.
    telemetry = active_telemetry()
    started = perf_counter() if telemetry is not None else 0.0
    gain_evaluations = 0
    iterations = 0

    # Lazy greedy: gains are submodular (they only shrink as the selection
    # grows -- see SelectionEvaluator.gain_of), so a max-heap of possibly
    # stale gains is exact: when the top entry's gain is fresh it is the
    # true argmax.  Heap keys order by lexicographic gain (descending),
    # then smaller photo, then smaller id for determinism.
    heap: List[Tuple[float, float, int, int, Photo]] = []
    gain_evaluations += len(pool)
    for photo in pool:
        gain = evaluator.gain_of(photo)
        if require_positive_gain and not gain.is_positive():
            # Submodularity: a photo with no gain now never gains later.
            continue
        heap.append((-gain.point, -gain.aspect, photo.size_bytes, photo.photo_id, photo))
    heapq.heapify(heap)
    # The initial pool scan is the expected-coverage enumeration phase.
    enumeration_s = (perf_counter() - started) if telemetry is not None else 0.0

    version = 0  # bumps on every committed photo
    freshness: Dict[int, int] = {photo.photo_id: 0 for *_rest, photo in heap}

    while heap:
        iterations += 1
        neg_point, neg_aspect, size, photo_id, photo = heapq.heappop(heap)
        if budget is not None and size > budget:
            continue  # the budget only shrinks; this photo is out for good
        if freshness[photo_id] == version:
            gain = CoverageValue(-neg_point, -neg_aspect)
            if require_positive_gain and not gain.is_positive():
                break
            evaluator.add(photo)
            selection.photos.append(photo)
            selection.gains.append(gain)
            version += 1
            if budget is not None:
                budget -= size
                if budget <= 0:
                    break
        else:
            gain = evaluator.gain_of(photo)
            gain_evaluations += 1
            freshness[photo_id] = version
            if require_positive_gain and not gain.is_positive():
                continue
            heapq.heappush(heap, (-gain.point, -gain.aspect, size, photo_id, photo))

    if telemetry is not None:
        telemetry.on_selection(
            pool_size=len(pool),
            iterations=iterations,
            gain_evaluations=gain_evaluations,
            selected=len(selection.photos),
            elapsed_s=perf_counter() - started,
            enumeration_s=enumeration_s,
            strategy="incremental",
        )
    return selection


def greedy_select_reference(
    index: CoverageIndex,
    pool: Sequence[Photo],
    storage: StorageSpec,
    background: Sequence[NodeProfile],
    require_positive_gain: bool = True,
) -> NodeSelection:
    """Naive evaluate-all-candidates greedy: the full-rebuild reference.

    Each round constructs a **fresh** :class:`SelectionEvaluator` from the
    background, replays the tentative selection into it, evaluates every
    remaining candidate, and commits the one with the lexicographically
    largest gain (same tie-break as :func:`greedy_select`: smaller photo,
    then smaller ``photo_id``).  No lazy heap, no incremental profile
    reuse -- ``O(rounds * pool)`` gain evaluations and a full profile
    rebuild per round.

    This is the oracle :func:`greedy_select` is tested byte-identical
    against (both query the same evaluator, so gain values are bitwise
    equal, and submodularity makes the CELF heap pick the same argmax),
    and the baseline ``scripts/bench_core.py`` measures speedups over.
    """
    selection = NodeSelection(node_id=storage.node_id)
    budget = storage.capacity_bytes
    remaining = list(pool)

    telemetry = active_telemetry()
    started = perf_counter() if telemetry is not None else 0.0
    gain_evaluations = 0
    iterations = 0

    while remaining:
        iterations += 1
        evaluator = SelectionEvaluator(index, background, storage.delivery_probability)
        for photo in selection.photos:
            evaluator.add(photo)
        best = None
        for photo in remaining:
            if budget is not None and photo.size_bytes > budget:
                continue
            gain = evaluator.gain_of(photo)
            gain_evaluations += 1
            key = (-gain.point, -gain.aspect, photo.size_bytes, photo.photo_id)
            if best is None or key < best[0]:
                best = (key, photo, gain)
        if best is None:
            break
        _, photo, gain = best
        if require_positive_gain and not gain.is_positive():
            break
        selection.photos.append(photo)
        selection.gains.append(gain)
        remaining.remove(photo)
        if budget is not None:
            budget -= photo.size_bytes
            if budget <= 0:
                break

    if telemetry is not None:
        telemetry.on_selection(
            pool_size=len(pool),
            iterations=iterations,
            gain_evaluations=gain_evaluations,
            selected=len(selection.photos),
            elapsed_s=perf_counter() - started,
            enumeration_s=0.0,
            strategy="reference",
        )
    return selection


def greedy_reallocate(
    index: CoverageIndex,
    photos_a: Sequence[Photo],
    photos_b: Sequence[Photo],
    storage_a: StorageSpec,
    storage_b: StorageSpec,
    background: Sequence[NodeProfile] = (),
) -> ReallocationResult:
    """Solve the photo reallocation problem for a contact (Section III-D).

    *background* carries the command-center profile and every valid cached
    third-party metadata profile; the two contacting nodes' own collections
    must NOT be in it (they are represented by the selection pool).

    Returns the two ordered selections, higher-delivery-probability node
    first.  Photos may appear in both selections.
    """
    pool = _dedup_pool(photos_a, photos_b)

    if storage_a.delivery_probability >= storage_b.delivery_probability:
        first_spec, second_spec = storage_a, storage_b
    else:
        first_spec, second_spec = storage_b, storage_a

    first = greedy_select(index, pool, first_spec, background)

    # Freeze the first node's selection into the background of the second.
    # Imported at call time so a wrapper installed on the module attribute
    # (perfbench's traced run) also times this profile build.
    from .expected_coverage import build_node_profile

    first_profile = build_node_profile(
        index, first_spec.node_id, first.photos, first_spec.delivery_probability
    )
    second_background = list(background) + [first_profile]
    second = greedy_select(index, pool, second_spec, second_background)

    return ReallocationResult(first=first, second=second)


def _dedup_pool(photos_a: Sequence[Photo], photos_b: Sequence[Photo]) -> List[Photo]:
    """Union of the two collections, stable order, duplicates removed."""
    seen = set()
    pool: List[Photo] = []
    for photo in list(photos_a) + list(photos_b):
        if photo.photo_id not in seen:
            seen.add(photo.photo_id)
            pool.append(photo)
    return pool
