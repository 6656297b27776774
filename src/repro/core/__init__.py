"""Core photo-coverage model and selection algorithm (the paper's contribution).

Public surface:

* Geometry: :class:`~repro.core.geometry.Point`,
  :class:`~repro.core.geometry.Sector`.
* Metadata: :class:`~repro.core.metadata.PhotoMetadata`,
  :class:`~repro.core.metadata.Photo`.
* Coverage model: :class:`~repro.core.coverage.CoverageValue`,
  :func:`~repro.core.coverage.collection_coverage`,
  :class:`~repro.core.coverage_index.CoverageIndex`.
* Expected coverage: :func:`~repro.core.expected_coverage.expected_coverage`,
  :class:`~repro.core.expected_coverage.SelectionEvaluator`.
* Selection: :func:`~repro.core.selection.greedy_reallocate`,
  :func:`~repro.core.transfer.build_transfer_plan`,
  :func:`~repro.core.transfer.execute_transfer_plan`.
"""

from .angular import AngularInterval, ArcSet, angle_difference, merge_segments, normalize_angle
from .coverage import (
    DEFAULT_EFFECTIVE_ANGLE,
    CoverageValue,
    aspect_coverage,
    collection_coverage,
    photo_coverage,
    point_coverage,
)
from .coverage_index import CoverageIndex, PoICoverageState
from .expected_coverage import (
    NodeProfile,
    SelectionEvaluator,
    build_node_profile,
    expected_coverage,
    expected_coverage_enumerated,
    expected_coverage_sampled,
)
from .geometry import Point, Sector, coverage_range_from_fov
from .metadata import DEFAULT_PHOTO_SIZE_BYTES, Photo, PhotoMetadata
from .metrics import CollectionReport, PoICoverageReport, analyze_collection
from .poi import PoI, PoIList
from .quality import QualityPolicy, TimeDecay, discounted_value, quality_filter
from .selection import (
    NodeSelection,
    ReallocationResult,
    StorageSpec,
    greedy_reallocate,
    greedy_select,
    greedy_select_reference,
)
from .transfer import (
    Transfer,
    TransferOutcome,
    TransferPlan,
    build_transfer_plan,
    execute_transfer_plan,
)

__all__ = [
    "AngularInterval",
    "ArcSet",
    "angle_difference",
    "merge_segments",
    "normalize_angle",
    "DEFAULT_EFFECTIVE_ANGLE",
    "CoverageValue",
    "aspect_coverage",
    "collection_coverage",
    "photo_coverage",
    "point_coverage",
    "CoverageIndex",
    "PoICoverageState",
    "NodeProfile",
    "SelectionEvaluator",
    "build_node_profile",
    "expected_coverage",
    "expected_coverage_enumerated",
    "expected_coverage_sampled",
    "CollectionReport",
    "PoICoverageReport",
    "analyze_collection",
    "QualityPolicy",
    "TimeDecay",
    "discounted_value",
    "quality_filter",
    "Point",
    "Sector",
    "coverage_range_from_fov",
    "DEFAULT_PHOTO_SIZE_BYTES",
    "Photo",
    "PhotoMetadata",
    "PoI",
    "PoIList",
    "NodeSelection",
    "ReallocationResult",
    "StorageSpec",
    "greedy_reallocate",
    "greedy_select",
    "greedy_select_reference",
    "Transfer",
    "TransferOutcome",
    "TransferPlan",
    "build_transfer_plan",
    "execute_transfer_plan",
]
