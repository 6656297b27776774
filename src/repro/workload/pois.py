"""PoI list generation (Section V-A: 250 PoIs uniform over 6300 m x 6300 m)."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..core.geometry import Point
from ..core.poi import PoI, PoIList

__all__ = ["random_pois", "clustered_pois", "ring_viewpoints"]


def random_pois(
    count: int,
    region_width_m: float = 6300.0,
    region_height_m: float = 6300.0,
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
) -> PoIList:
    """*count* PoIs uniformly placed in the region (the paper's setup).

    *weights* optionally assigns per-PoI importance weights (Section II-C
    extension); defaults to all 1.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if weights is not None and len(weights) != count:
        raise ValueError(f"expected {count} weights, got {len(weights)}")
    rng = np.random.default_rng(seed)
    pois: List[PoI] = []
    for i in range(count):
        location = Point(rng.uniform(0.0, region_width_m), rng.uniform(0.0, region_height_m))
        weight = float(weights[i]) if weights is not None else 1.0
        pois.append(PoI(location=location, weight=weight))
    return PoIList(pois)


def clustered_pois(
    num_clusters: int,
    pois_per_cluster: int,
    region_width_m: float = 6300.0,
    region_height_m: float = 6300.0,
    cluster_radius_m: float = 200.0,
    seed: int = 0,
) -> PoIList:
    """PoIs concentrated in Gaussian clusters (e.g. damaged city blocks).

    Useful for disaster-scenario examples where targets are not uniform.
    """
    if num_clusters < 1 or pois_per_cluster < 1:
        raise ValueError("need at least one cluster and one PoI per cluster")
    rng = np.random.default_rng(seed)
    pois: List[PoI] = []
    for _ in range(num_clusters):
        center_x = rng.uniform(cluster_radius_m, region_width_m - cluster_radius_m)
        center_y = rng.uniform(cluster_radius_m, region_height_m - cluster_radius_m)
        for _ in range(pois_per_cluster):
            x = min(max(rng.normal(center_x, cluster_radius_m), 0.0), region_width_m)
            y = min(max(rng.normal(center_y, cluster_radius_m), 0.0), region_height_m)
            pois.append(PoI(location=Point(x, y)))
    return PoIList(pois)


def ring_viewpoints(
    center: Point,
    count: int,
    radius_m: float,
    jitter_m: float = 0.0,
    seed: int = 0,
) -> List[Point]:
    """*count* viewpoints on a (jittered) ring around *center*.

    The prototype-demo workload (Fig. 2(b)) places photos around one target
    at assorted aspects; this helper produces those camera positions.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if radius_m <= 0.0:
        raise ValueError(f"radius must be positive, got {radius_m}")
    rng = np.random.default_rng(seed)
    points: List[Point] = []
    for i in range(count):
        angle = 2.0 * math.pi * i / count
        r = radius_m + (rng.uniform(-jitter_m, jitter_m) if jitter_m > 0.0 else 0.0)
        points.append(Point(center.x + r * math.cos(angle), center.y - r * math.sin(angle)))
    return points
