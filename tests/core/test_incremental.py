"""Tests for repro.core.incremental (§7.1 decomposition updating)."""

import numpy as np
import pytest

from repro.core import PCA, IncrementalSubspaceTracker, SPEDetector, principal_angles
from repro.exceptions import ModelError, NotFittedError


class TestPrincipalAngles:
    def test_identical_subspaces(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        angles = principal_angles(q, q)
        assert np.allclose(angles, 0.0, atol=1e-7)

    def test_orthogonal_subspaces(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        angles = principal_angles(a, b)
        assert np.allclose(angles, np.pi / 2)

    def test_known_angle(self):
        a = np.array([[1.0], [0.0]])
        theta = 0.3
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert principal_angles(a, b)[0] == pytest.approx(theta)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestTracker:
    def test_warm_up_matches_batch_pca(self, sprint1):
        tracker = IncrementalSubspaceTracker(normal_rank=3)
        tracker.warm_up(sprint1.link_traffic)
        batch = PCA().fit(sprint1.link_traffic)
        # Eigenvalues agree (both are sample-covariance spectra).
        assert np.allclose(
            tracker.eigenvalues, batch.eigenvalues(), rtol=1e-8
        )
        # Normal subspaces coincide.
        angles = principal_angles(tracker.normal_basis, batch.components[:, :3])
        assert angles.max() < 1e-6

    def test_detection_agrees_with_batch_detector(self, sprint1):
        tracker = IncrementalSubspaceTracker(normal_rank=3)
        tracker.warm_up(sprint1.link_traffic[:720])
        batch = SPEDetector(normal_rank=3).fit(sprint1.link_traffic[:720])
        disagreements = 0
        for y in sprint1.link_traffic[720:820]:
            spe_inc = tracker.spe(y)
            spe_batch = float(batch.spe(y))
            assert spe_inc == pytest.approx(spe_batch, rel=1e-6)
            inc_flag = spe_inc > tracker.threshold
            batch_flag = spe_batch > batch.threshold
            disagreements += int(inc_flag != batch_flag)
        assert disagreements <= 2  # thresholds differ only in df convention

    def test_streaming_detects_injected_spike(self, sprint1):
        tracker = IncrementalSubspaceTracker(normal_rank=3, refresh_interval=36)
        tracker.warm_up(sprint1.link_traffic[:720])
        flow = sprint1.routing.od_index("lon", "mad")
        alarms = 0
        for i, y in enumerate(sprint1.link_traffic[720:820]):
            if i == 50:
                y = y + 6e7 * sprint1.routing.column(flow)
            _, is_anomalous = tracker.update(y)
            if i == 50:
                assert is_anomalous
            alarms += int(is_anomalous)
        assert alarms < 10

    def test_forgetting_adapts_to_level_shift(self, rng):
        """After a permanent mean shift, a tracker with short memory
        stops alarming once it has re-learned the level."""
        m = 6
        base = rng.normal(0, 1.0, size=(400, m)) + 100.0
        tracker = IncrementalSubspaceTracker(
            normal_rank=1, forgetting=0.05, refresh_interval=1
        )
        tracker.warm_up(base[:200])
        shifted = base[200:] + 25.0  # permanent shift in every component
        flags = [tracker.update(y)[1] for y in shifted]
        # Alarming at first...
        assert any(flags[:10])
        # ... but adapted by the end (short memory).
        assert not any(flags[-50:])

    def test_drift_measured_against_reference(self, sprint1):
        tracker = IncrementalSubspaceTracker(normal_rank=3, refresh_interval=36)
        tracker.warm_up(sprint1.link_traffic[:504])
        reference = tracker.normal_basis
        for y in sprint1.link_traffic[504:648]:
            tracker.update(y)
        drift = tracker.drift_from(reference)
        # §7.1 stability: the tracked subspace barely moves in a day.
        assert drift < 0.3  # radians

    def test_validation(self):
        with pytest.raises(ModelError):
            IncrementalSubspaceTracker(normal_rank=-1)
        with pytest.raises(ModelError):
            IncrementalSubspaceTracker(normal_rank=1, forgetting=0.0)
        with pytest.raises(ModelError):
            IncrementalSubspaceTracker(normal_rank=1, refresh_interval=0)
        with pytest.raises(NotFittedError):
            IncrementalSubspaceTracker(normal_rank=1).spe(np.ones(3))
        with pytest.raises(ModelError, match="non-finite"):
            IncrementalSubspaceTracker(normal_rank=1).warm_up(
                np.array([[1.0, 2.0], [np.nan, 3.0], [2.0, 1.0]])
            )

    def test_rank_exceeding_dimension_rejected(self, rng):
        tracker = IncrementalSubspaceTracker(normal_rank=10)
        with pytest.raises(ModelError):
            tracker.warm_up(rng.normal(size=(20, 4)))


class TestSubspaceStability:
    """§7.1: the subspace model is reasonably stable over time."""

    def test_threshold_stable_across_windows_at_fixed_rank(self, sprint1):
        """At a fixed normal rank, thresholds fitted on the two
        half-weeks stay within a small factor (the halves differ in
        weekday/weekend mix, so exact equality is not expected)."""
        first = SPEDetector(normal_rank=3).fit(sprint1.link_traffic[:504])
        second = SPEDetector(normal_rank=3).fit(sprint1.link_traffic[504:])
        assert 0.2 < first.threshold / second.threshold < 5.0

    def test_normal_subspace_stable_across_windows(self, sprint1):
        """The projection P P^T itself barely moves between half-weeks:
        principal angles between the two normal subspaces stay small."""
        first = PCA().fit(sprint1.link_traffic[:504]).components[:, :3]
        second = PCA().fit(sprint1.link_traffic[504:]).components[:, :3]
        assert np.cos(principal_angles(first, second)).min() > 0.8
