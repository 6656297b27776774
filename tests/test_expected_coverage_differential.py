"""Differential sweep: the three expected-coverage evaluators must agree.

``expected_coverage`` (the exact polynomial endpoint sweep) is the
production path; ``expected_coverage_enumerated`` is Definition 2 executed
literally over all 2^m delivery outcomes; ``expected_coverage_sampled`` is
the Monte-Carlo cross-check.  On randomized node profiles up to m = 8 the
three must agree within documented tolerances:

* sweep vs enumeration: floating-point tolerance (both are exact; they
  differ only in summation order), 1e-9 relative / 1e-12 absolute.
* sweep vs sampling: statistical tolerance.  Each PoI's point indicator is
  a Bernoulli mean over N common-random-number samples, so the standard
  error per PoI is at most 0.5/sqrt(N); with N = 4000 and 3 PoIs a 6-sigma
  band is ~0.14 in summed point coverage (aspect scales by 2*pi).

A second differential checks the greedy selection's evaluator against the
sweep: on aspect-restricted PoIs with a random committed prefix,
``SelectionEvaluator.gain_of`` must equal the ``expected_coverage`` delta
of adding the photo to the free node's collection, to 1e-9.  It is the
randomized oracle for the evaluator's exclude-segment bookkeeping.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angular import AngularInterval, ArcSet
from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import (
    SelectionEvaluator,
    build_node_profile,
    expected_coverage,
    expected_coverage_enumerated,
    expected_coverage_sampled,
)
from repro.core.geometry import Point
from repro.core.poi import PoI, PoIList

from helpers import photo_at_aspect

THETA = math.radians(30.0)

POIS = [Point(0.0, 0.0), Point(500.0, 0.0), Point(0.0, 500.0)]


def _index() -> CoverageIndex:
    return CoverageIndex(PoIList.from_points(POIS), effective_angle=THETA)


def _random_profiles(rng: random.Random, index: CoverageIndex, num_nodes: int):
    """Node profiles with random collections and delivery probabilities."""
    profiles = []
    for node_id in range(1, num_nodes + 1):
        photos = []
        for _ in range(rng.randint(0, 4)):
            poi = rng.choice(POIS)
            photos.append(photo_at_aspect(poi, rng.uniform(0.0, 360.0)))
        # Mix in the occasional certain node (the command center case) and
        # the occasional zero-probability node (pruned by every evaluator).
        roll = rng.random()
        if roll < 0.1:
            probability = 1.0
        elif roll < 0.2:
            probability = 0.0
        else:
            probability = rng.uniform(0.05, 0.95)
        profiles.append(build_node_profile(index, node_id, photos, probability))
    return profiles


class TestSweepAgainstEnumeration:
    @given(seed=st.integers(min_value=0, max_value=10_000), m=st.integers(min_value=0, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_polynomial_sweep_matches_definition_2(self, seed, m):
        index = _index()
        profiles = _random_profiles(random.Random(seed), index, m)
        exact = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        assert exact.point == pytest.approx(enumerated.point, rel=1e-9, abs=1e-12)
        assert exact.aspect == pytest.approx(enumerated.aspect, rel=1e-9, abs=1e-12)


class TestSweepAgainstSampling:
    #: 6-sigma statistical band for N=4000 samples over 3 unit-weight PoIs.
    POINT_TOLERANCE = 0.15
    ASPECT_TOLERANCE = 0.15 * 2.0 * math.pi

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_monte_carlo_within_statistical_tolerance(self, seed, m):
        index = _index()
        profiles = _random_profiles(random.Random(100 + seed), index, m)
        exact = expected_coverage(index, profiles)
        sampled = expected_coverage_sampled(index, profiles, samples=4000, seed=0)
        assert sampled.point == pytest.approx(exact.point, abs=self.POINT_TOLERANCE)
        assert sampled.aspect == pytest.approx(exact.aspect, abs=self.ASPECT_TOLERANCE)


class TestEvaluatorEdgeAgreement:
    def test_all_three_agree_on_empty_profile_set(self):
        index = _index()
        assert expected_coverage(index, []).point == 0.0
        assert expected_coverage_enumerated(index, []).point == 0.0
        assert expected_coverage_sampled(index, [], samples=10).point == 0.0

    def test_all_three_agree_on_certain_nodes_only(self):
        index = _index()
        rng = random.Random(42)
        photos = [photo_at_aspect(POIS[0], rng.uniform(0.0, 360.0)) for _ in range(3)]
        profiles = [build_node_profile(index, 1, photos, 1.0)]
        exact = expected_coverage(index, profiles)
        enumerated = expected_coverage_enumerated(index, profiles)
        sampled = expected_coverage_sampled(index, profiles, samples=1)
        # A certain node makes all three evaluators deterministic and equal.
        assert exact.point == pytest.approx(enumerated.point, rel=1e-12)
        assert exact.point == pytest.approx(sampled.point, rel=1e-12)
        assert exact.aspect == pytest.approx(enumerated.aspect, rel=1e-9)
        assert exact.aspect == pytest.approx(sampled.aspect, rel=1e-9)


def _restricted_pois(rng: random.Random):
    """The POIS grid, some with a random important-aspects restriction."""
    pois = []
    for point in POIS:
        if rng.random() < 0.5:
            arcs = ArcSet(
                AngularInterval.around(
                    rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.5)
                )
                for _ in range(rng.randint(1, 2))
            )
            pois.append(PoI(location=point, important_aspects=arcs))
        else:
            pois.append(PoI(location=point))
    return PoIList(pois)


def _random_pool(rng: random.Random, size: int):
    return [
        photo_at_aspect(rng.choice(POIS), rng.uniform(0.0, 360.0))
        for _ in range(size)
    ]


class TestEvaluatorAgainstSweep:
    """``SelectionEvaluator.gain_of`` vs the exact sweep's marginal delta."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        m=st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_gain_equals_sweep_delta(self, seed, m):
        rng = random.Random(seed)
        index = CoverageIndex(_restricted_pois(rng), effective_angle=THETA)
        profiles = _random_profiles(rng, index, m)
        pool = _random_pool(rng, rng.randint(1, 12))
        probability = rng.uniform(0.05, 1.0)
        committed = pool[: rng.randint(0, len(pool) - 1)]
        free_id = m + 1  # _random_profiles numbers the background 1..m

        evaluator = SelectionEvaluator(index, profiles, probability)
        for photo in committed:
            evaluator.add(photo)
        before = expected_coverage(
            index, profiles + [build_node_profile(index, free_id, committed, probability)]
        )
        for photo in pool:
            gain = evaluator.gain_of(photo)
            free = build_node_profile(index, free_id, committed + [photo], probability)
            after = expected_coverage(index, profiles + [free])
            assert gain.point == pytest.approx(after.point - before.point, rel=1e-9, abs=1e-9)
            assert gain.aspect == pytest.approx(after.aspect - before.aspect, rel=1e-9, abs=1e-9)
