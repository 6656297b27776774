"""Random photo generation per Table I.

Photos are "randomly generated by the participants" (Section V-A) with
metadata drawn from the Table I ranges: orientation uniform in
[0, 360) degrees, field-of-view uniform in [30, 60] degrees, coverage
range ``r = c * cot(phi / 2)`` with ``c`` uniform in [50, 100] m, size
4 MB.  Locations are uniform over the region by default; a *targeted*
mode aims a configurable fraction of photos at randomly chosen PoIs
(from a viewpoint inside the coverage range), modeling participants who
deliberately photograph the targets -- used by the prototype-demo
workload and available as an experiment knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.geometry import Point
from ..core.metadata import DEFAULT_PHOTO_SIZE_BYTES, Photo, PhotoMetadata
from ..core.poi import PoIList

__all__ = ["PhotoGeneratorSpec", "PhotoGenerator", "PhotoArrival", "generate_photo_schedule"]


@dataclass(frozen=True)
class PhotoGeneratorSpec:
    """Metadata distribution parameters (Table I defaults).

    ``fov_range_deg`` and ``range_scale_m`` encode
    ``r = c * cot(phi/2), c ~ U[50, 100]``; ``targeted_fraction`` is the
    share of photos deliberately aimed at a PoI (0 = Table I's fully
    uniform generation).
    """

    region_width_m: float = 6300.0
    region_height_m: float = 6300.0
    fov_range_deg: Tuple[float, float] = (30.0, 60.0)
    range_scale_m: Tuple[float, float] = (50.0, 100.0)
    photo_size_bytes: int = DEFAULT_PHOTO_SIZE_BYTES
    targeted_fraction: float = 0.0
    quality_range: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.region_width_m <= 0.0 or self.region_height_m <= 0.0:
            raise ValueError("region dimensions must be positive")
        lo, hi = self.fov_range_deg
        if not 0.0 < lo <= hi < 180.0:
            raise ValueError(f"fov range must satisfy 0 < lo <= hi < 180, got {self.fov_range_deg}")
        lo, hi = self.range_scale_m
        if not 0.0 < lo <= hi:
            raise ValueError(f"range scale must satisfy 0 < lo <= hi, got {self.range_scale_m}")
        if self.photo_size_bytes <= 0:
            raise ValueError(f"photo size must be positive, got {self.photo_size_bytes}")
        if not 0.0 <= self.targeted_fraction <= 1.0:
            raise ValueError(f"targeted_fraction must be in [0, 1], got {self.targeted_fraction}")
        lo, hi = self.quality_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"quality_range must satisfy 0 <= lo <= hi <= 1, got {self.quality_range}")


class PhotoGenerator:
    """Draws photos with Table I metadata, deterministically from a seed."""

    def __init__(
        self,
        spec: PhotoGeneratorSpec = PhotoGeneratorSpec(),
        pois: Optional[PoIList] = None,
        seed: int = 0,
    ) -> None:
        if spec.targeted_fraction > 0.0 and (pois is None or len(pois) == 0):
            raise ValueError("targeted generation requires a non-empty PoI list")
        self.spec = spec
        self.pois = pois
        self._rng = np.random.default_rng(seed)

    def _draw_fov_and_range(self) -> Tuple[float, float]:
        fov = math.radians(self._rng.uniform(*self.spec.fov_range_deg))
        scale = self._rng.uniform(*self.spec.range_scale_m)
        coverage_range = scale / math.tan(fov / 2.0)
        return fov, coverage_range

    def _uniform_metadata(self) -> PhotoMetadata:
        fov, coverage_range = self._draw_fov_and_range()
        location = Point(
            self._rng.uniform(0.0, self.spec.region_width_m),
            self._rng.uniform(0.0, self.spec.region_height_m),
        )
        orientation = self._rng.uniform(0.0, 2.0 * math.pi)
        return PhotoMetadata(location, coverage_range, fov, orientation)

    def _targeted_metadata(self) -> PhotoMetadata:
        fov, coverage_range = self._draw_fov_and_range()
        poi = self.pois[int(self._rng.integers(0, len(self.pois)))]
        # Stand at a random aspect, strictly inside the coverage range, and
        # aim at the PoI with a small orientation jitter inside the fov.
        aspect = self._rng.uniform(0.0, 2.0 * math.pi)
        distance = self._rng.uniform(0.1, 0.9) * coverage_range
        # Aspect angle is clockwise-from-east; convert to planar offsets
        # consistent with Point.bearing_to (y grows "counter-clockwise").
        location = Point(
            poi.location.x + distance * math.cos(aspect),
            poi.location.y - distance * math.sin(aspect),
        )
        toward_poi = location.bearing_to(poi.location)
        jitter = self._rng.uniform(-fov / 4.0, fov / 4.0)
        return PhotoMetadata(location, coverage_range, fov, toward_poi + jitter)

    def next_photo(self, taken_at: float = 0.0, owner_id: Optional[int] = None) -> Photo:
        if self.spec.targeted_fraction > 0.0 and self._rng.random() < self.spec.targeted_fraction:
            metadata = self._targeted_metadata()
        else:
            metadata = self._uniform_metadata()
        quality_lo, quality_hi = self.spec.quality_range
        quality = (
            quality_lo
            if quality_lo == quality_hi
            else float(self._rng.uniform(quality_lo, quality_hi))
        )
        return Photo(
            metadata=metadata,
            size_bytes=self.spec.photo_size_bytes,
            taken_at=taken_at,
            owner_id=owner_id,
            quality=quality,
        )

    def batch(self, count: int, taken_at: float = 0.0) -> List[Photo]:
        return [self.next_photo(taken_at=taken_at) for _ in range(count)]


@dataclass(frozen=True)
class PhotoArrival:
    """A scheduled photo creation: *owner_id* takes *photo* at *time*."""

    time: float
    owner_id: int
    photo: Photo


def generate_photo_schedule(
    generator: PhotoGenerator,
    participant_ids: Sequence[int],
    photos_per_hour: float,
    duration_s: float,
    seed: int = 0,
) -> List[PhotoArrival]:
    """Poisson photo arrivals at *photos_per_hour* across all participants.

    Each arrival is assigned to a uniformly random participant, matching
    Section V-A's "photos are randomly generated by the participants".
    """
    if photos_per_hour < 0.0:
        raise ValueError(f"photos_per_hour must be non-negative, got {photos_per_hour}")
    if not participant_ids:
        raise ValueError("need at least one participant")
    rng = np.random.default_rng(seed)
    arrivals: List[PhotoArrival] = []
    if photos_per_hour == 0.0:
        return arrivals
    rate_per_second = photos_per_hour / 3600.0
    time = rng.exponential(1.0 / rate_per_second)
    while time < duration_s:
        owner = int(participant_ids[int(rng.integers(0, len(participant_ids)))])
        arrivals.append(PhotoArrival(time=time, owner_id=owner,
                                     photo=generator.next_photo(taken_at=time, owner_id=owner)))
        time += rng.exponential(1.0 / rate_per_second)
    return arrivals
