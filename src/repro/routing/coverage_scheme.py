"""The paper's scheme: coverage-aware photo selection routing (Section III).

On every contact the two nodes (a) update contact statistics and PROPHET
predictabilities, (b) exchange and validate metadata (Section III-B),
(c) solve the greedy photo-reallocation problem maximizing expected
coverage over the node set M (Sections III-C/III-D), and (d) execute the
resulting transfer plan under the contact's byte budget, most valuable
photos first.

On a gateway uplink, the command center acts as the free node with
delivery probability 1 and unlimited storage: it greedily pulls exactly
the photos that still add coverage (which is why the scheme delivers
dramatically fewer -- but more valuable -- photos than spray baselines,
Figs. 7(c)/8(c)).  The node then re-selects its own collection against the
command center's new holdings, which realizes the acknowledgment
semantics: delivered or newly redundant photos are dropped, freeing
storage.

``use_metadata_cache=False`` turns the scheme into the paper's
**NoMetadata** ablation: no third-party metadata is cached or used, so
the node set M degenerates to the two contact participants (plus the
command center itself during uplinks).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.expected_coverage import NodeProfile, build_node_profile
from ..core.metadata import Photo
from ..core.quality import QualityPolicy
from ..core.selection import StorageSpec, greedy_reallocate, greedy_select
from ..core.transfer import build_transfer_plan, execute_transfer_plan
from ..metadata_mgmt.cache import CacheEntry
from .base import RoutingScheme
from .registry import register_scheme

__all__ = ["CoverageSelectionScheme", "NoMetadataScheme"]


@register_scheme("our-scheme", use_metadata_cache=True)
@register_scheme("no-metadata", use_metadata_cache=False)
class CoverageSelectionScheme(RoutingScheme):
    """Our scheme (or NoMetadata when *use_metadata_cache* is off)."""

    def __init__(
        self,
        use_metadata_cache: bool = True,
        min_delivery_probability: float = 0.02,
        quality_policy: "QualityPolicy" = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= min_delivery_probability <= 1.0:
            raise ValueError(
                f"min_delivery_probability must be in [0, 1], got {min_delivery_probability}"
            )
        self.use_metadata_cache = use_metadata_cache
        #: Optional Section II-C binary prefilter: photos the policy does
        #: not admit never enter storage (blurred shots are worthless no
        #: matter their coverage).
        self.quality_policy = quality_policy
        #: Cold-start floor on PROPHET probabilities during selection.  A
        #: node that has never (transitively) met the command center has
        #: p = 0, which would zero every expected gain and make contacts
        #: drop all photos; the floor keeps selection meaningful -- useful
        #: photos are still hoarded and replicated optimistically -- while
        #: real probability differences keep dominating the ordering.
        self.min_delivery_probability = min_delivery_probability
        self.name = "our-scheme" if use_metadata_cache else "no-metadata"

    def _selection_probability(self, node: "DTNNode", now: float) -> float:
        return max(node.delivery_probability(now), self.min_delivery_probability)

    # ------------------------------------------------------------------
    # Photo creation
    # ------------------------------------------------------------------

    def on_photo_created(self, node: DTNNode, photo: Photo, now: float) -> None:
        """Store the new photo, evicting the least useful photo if full.

        Photos that cover no PoI are still stored when space is free (the
        metadata inspection that proves them worthless happens at the next
        contact anyway), but they are first in line for eviction.
        """
        if self.quality_policy is not None and not self.quality_policy.admits(photo, now):
            return
        if node.storage.fits(photo):
            node.storage.add(photo)
            return
        victim = node.storage.least(self._eviction_key)
        if victim is None:
            return
        if len(self.sim.incidences(photo)) > len(self.sim.incidences(victim)):
            node.storage.remove(victim.photo_id)
            if node.storage.fits(photo):
                node.storage.add(photo)

    def _eviction_key(self, photo: Photo) -> Tuple[int, int]:
        """Least useful first: fewest PoI incidences, then the newest photo."""
        return len(self.sim.incidences(photo)), -photo.photo_id

    # ------------------------------------------------------------------
    # Node-node contacts
    # ------------------------------------------------------------------

    def on_contact(self, node_a: DTNNode, node_b: DTNNode, now: float, duration: float) -> None:
        self.record_encounter(node_a, node_b, now)

        if self.use_metadata_cache:
            # Exchange caches first (fresher entry wins), then each other's
            # live snapshots, then drop entries Eq. 1 declares stale.
            node_a.cache.merge_from(node_b.cache)
            node_b.cache.merge_from(node_a.cache)
            node_a.cache.store(node_b.snapshot_metadata(now))
            node_b.cache.store(node_a.snapshot_metadata(now))
            node_a.cache.purge_stale(now)
            node_b.cache.purge_stale(now)

        background = self._background_profiles(node_a, node_b, now)

        spec_a = StorageSpec(
            node_id=node_a.node_id,
            capacity_bytes=node_a.storage.capacity_bytes,
            delivery_probability=self._selection_probability(node_a, now),
        )
        spec_b = StorageSpec(
            node_id=node_b.node_id,
            capacity_bytes=node_b.storage.capacity_bytes,
            delivery_probability=self._selection_probability(node_b, now),
        )
        holdings = {
            node_a.node_id: node_a.storage.photos(),
            node_b.node_id: node_b.storage.photos(),
        }
        result = greedy_reallocate(
            self.sim.index,
            holdings[node_a.node_id],
            holdings[node_b.node_id],
            spec_a,
            spec_b,
            background,
        )
        plan = build_transfer_plan(result, holdings)
        outcome = execute_transfer_plan(
            plan,
            result,
            holdings,
            capacities={
                node_a.node_id: node_a.storage.capacity_bytes,
                node_b.node_id: node_b.storage.capacity_bytes,
            },
            byte_budget=self.sim.byte_budget(duration),
            transfer_survives=self.sim.transfer_survives if self.sim.faults else None,
        )
        node_a.storage.replace_all(outcome.final_collections[node_a.node_id])
        node_b.storage.replace_all(outcome.final_collections[node_b.node_id])

        if self.use_metadata_cache:
            # Post-transfer snapshots so each peer leaves with fresh state.
            node_a.cache.store(node_b.snapshot_metadata(now))
            node_b.cache.store(node_a.snapshot_metadata(now))

    def _background_profiles(
        self, node_a: DTNNode, node_b: DTNNode, now: float
    ) -> List[NodeProfile]:
        """Profiles of every node in M other than the two participants."""
        if not self.use_metadata_cache:
            return []
        exclude = {node_a.node_id, node_b.node_id}
        entries: Dict[int, CacheEntry] = {}
        for cache in (node_a.cache, node_b.cache):
            for entry in cache.valid_entries(now, exclude=exclude):
                existing = entries.get(entry.node_id)
                if existing is None or entry.snapshot_time > existing.snapshot_time:
                    entries[entry.node_id] = entry
        profiles = []
        for entry in sorted(entries.values(), key=lambda e: e.node_id):
            probability = 1.0 if entry.node_id == self.sim.config.command_center_id else (
                entry.delivery_probability
            )
            profiles.append(
                build_node_profile(self.sim.index, entry.node_id, entry.photos, probability)
            )
        return profiles

    # ------------------------------------------------------------------
    # Gateway uplinks
    # ------------------------------------------------------------------

    def on_command_center_contact(
        self, node: DTNNode, center: CommandCenter, now: float, duration: float
    ) -> None:
        self.record_center_encounter(node, center, now)

        center_profile = build_node_profile(
            self.sim.index, center.node_id, center.storage.photos(), 1.0
        )
        background: List[NodeProfile] = [center_profile]
        if self.use_metadata_cache:
            node.cache.purge_stale(now)
            for entry in node.cache.valid_entries(
                now, exclude={node.node_id, center.node_id}
            ):
                background.append(
                    build_node_profile(
                        self.sim.index, entry.node_id, entry.photos, entry.delivery_probability
                    )
                )

        # The command center selects, with probability 1, the photos that
        # still add coverage; its own archive is background so already
        # delivered or redundant photos get zero gain.
        selection = greedy_select(
            self.sim.index,
            node.storage.photos(),
            StorageSpec(center.node_id, None, 1.0),
            background,
        )
        budget = self.sim.byte_budget(duration)
        used = 0
        delivered: List[Photo] = []
        for photo in selection.photos:
            if budget is not None and used + photo.size_bytes > budget:
                break
            used += photo.size_bytes
            if not self.sim.transfer_survives(photo):
                continue  # corrupted uplink: bytes spent, nothing delivered
            self.sim.deliver(photo)
            delivered.append(photo)

        # Acknowledgment: the node re-selects its collection against the
        # command center's updated archive, dropping redundant photos.
        ack_profile = build_node_profile(
            self.sim.index, center.node_id, center.storage.photos(), 1.0
        )
        node_background = [ack_profile] + background[1:]
        keep = greedy_select(
            self.sim.index,
            node.storage.photos(),
            StorageSpec(
                node.node_id,
                node.storage.capacity_bytes,
                self._selection_probability(node, now),
            ),
            node_background,
        )
        node.storage.replace_all(keep.photos)

        if self.use_metadata_cache:
            node.cache.store(center.snapshot_metadata(now))


def NoMetadataScheme() -> CoverageSelectionScheme:
    """The NoMetadata ablation of Section V-B (factory helper)."""
    return CoverageSelectionScheme(use_metadata_cache=False)
