"""Contract tests for the sharded and streaming registry detectors.

Beyond the generic detector contract (tests/detectors/test_contracts.py
runs automatically over every registry entry), these pin the *identity*
guarantees: the spatial detector is exactly the pipeline's fusion plane,
and the registry's streaming detector is the tracker behind the
windowed StreamingDetector, so the two cannot drift apart.
"""

import numpy as np
import pytest

from repro import detectors
from repro.core import q_threshold
from repro.detectors import ShardedSubspaceDetector, StreamingSubspaceDetector
from repro.exceptions import ModelError
from repro.pipeline.sharded import SpatialCoordinator


@pytest.fixture(scope="module")
def block():
    rng = np.random.default_rng(77)
    t, m = 500, 12
    base = 1e7 * (1.3 + np.sin(2 * np.pi * np.arange(t) / 144.0))[:, None]
    block = np.abs(
        base
        * rng.uniform(0.5, 1.5, size=m)
        * (1.0 + 0.06 * rng.standard_normal((t, m)))
    )
    # Perturb a subset of links: a common-mode scaling of every link
    # would live inside the normal subspace and (correctly) not alarm.
    block[420, :5] *= 3.0
    return block


class TestRegistryResolution:
    def test_names_and_aliases(self):
        assert detectors.get("sharded-subspace").name == "sharded-subspace"
        assert detectors.get("spatial-subspace").name == "sharded-subspace"
        assert detectors.get("zoned-subspace").name == "sharded-subspace"
        assert (
            detectors.get("streaming-subspace").name == "streaming-subspace"
        )
        assert detectors.get("online-subspace").name == "streaming-subspace"
        assert (
            detectors.get("incremental-subspace").name
            == "streaming-subspace"
        )

    def test_types(self):
        assert isinstance(
            detectors.get("sharded-subspace"), ShardedSubspaceDetector
        )
        assert isinstance(
            detectors.get("streaming-subspace"), StreamingSubspaceDetector
        )

    def test_kwargs_forwarded(self):
        detector = detectors.get(
            "sharded-subspace", num_zones=3, fusion="union"
        )
        assert detector.num_zones == 3
        assert detector.fusion == "union"
        with pytest.raises(ModelError, match="unknown fusion"):
            detectors.get("sharded-subspace", fusion="quorum")


class TestShardedDetectorIdentity:
    @pytest.mark.parametrize("fusion", ["rescore", "union", "vote"])
    def test_score_is_the_fusion_plane(self, block, fusion):
        detector = ShardedSubspaceDetector(
            num_zones=3, fusion=fusion
        ).fit(block)
        plane = SpatialCoordinator(num_zones=3, workers=1).fit(block)
        assert np.array_equal(
            detector.score(block),
            plane.model.fused_score(block, fusion),
        )

    def test_rescore_threshold_is_pooled_q_statistic(self, block):
        detector = ShardedSubspaceDetector(num_zones=3).fit(block)
        pooled = detector.model.pooled_residual_eigenvalues()
        assert detector.threshold_at(0.995) == q_threshold(
            pooled, confidence=0.995
        )

    def test_union_quantile_calibration(self, block):
        detector = ShardedSubspaceDetector(
            num_zones=3, fusion="union"
        ).fit(block)
        train = detector.score(block)
        assert detector.threshold_at(0.97) == pytest.approx(
            float(np.quantile(train, 0.97))
        )
        assert detector.threshold_at(0.999) >= detector.threshold_at(0.9)

    def test_flags_injected_spike(self, block):
        for fusion in ("rescore", "union"):
            alarms = (
                ShardedSubspaceDetector(num_zones=2, fusion=fusion)
                .fit(block)
                .detect(block, confidence=0.999)
            )
            assert alarms.flags[420], fusion

    def test_single_link_block_degrades_to_one_zone(self):
        rng = np.random.default_rng(5)
        narrow = np.abs(rng.normal(1e6, 1e5, size=(200, 1)))
        detector = ShardedSubspaceDetector(num_zones=4).fit(narrow)
        assert detector.model.num_zones == 1
        assert detector.score(narrow).shape == (200,)


class TestStreamingSurfacesCannotDrift:
    def test_registry_detector_is_the_tracker(self, block):
        detector = StreamingSubspaceDetector().fit(block)
        tracker = detector.tracker
        assert np.array_equal(
            detector.score(block), tracker.spe_block(block)
        )
        assert detector.threshold_at(0.999) == q_threshold(
            tracker.eigenvalues[tracker.normal_rank :], confidence=0.999
        )

    def test_score_does_not_mutate_state(self, block):
        detector = StreamingSubspaceDetector().fit(block)
        before = detector.tracker.mean
        detector.score(block)
        detector.detect(block)
        assert np.array_equal(before, detector.tracker.mean)
