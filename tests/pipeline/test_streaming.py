"""Streaming pipeline: windowed scoring, folds, and live alarms.

Arrival-at-a-time processing is the same engine fed one-row windows
with ``refresh=False``; :class:`TestPerArrival` pins it.
"""

import numpy as np
import pytest

from repro.core.incremental import IncrementalSubspaceTracker
from repro.exceptions import ModelError, NotFittedError
from repro.pipeline import DetectionPipeline, StreamingDetector


@pytest.fixture(scope="module")
def fitted(small_dataset):
    warmup = 144
    pipeline = DetectionPipeline(confidence=0.999).fit(
        small_dataset.link_traffic[:warmup], routing=small_dataset.routing
    )
    return small_dataset, warmup, pipeline


class TestStreamWindows:
    def test_windows_cover_every_bin_once(self, fitted):
        dataset, warmup, pipeline = fitted
        stream = dataset.link_traffic[warmup:]
        windows = list(pipeline.stream(stream, window_bins=40))
        sizes = [w.flags.size for w in windows]
        assert sum(sizes) == stream.shape[0]
        starts = [w.start_index for w in windows]
        assert starts == list(np.cumsum([0] + sizes[:-1]))

    def test_live_injection_is_caught_and_identified(self, fitted):
        dataset, warmup, pipeline = fitted
        stream = dataset.link_traffic[warmup:].copy()
        flow = dataset.routing.od_index("lon", "zur")
        stream[30] += 2.0e8 * dataset.routing.column(flow)
        alarm_bins, alarm_flows = [], []
        for window in pipeline.stream(stream, window_bins=24):
            alarm_bins.extend(int(i) for i in window.anomalous_bins)
            alarm_flows.extend(int(i) for i in window.flow_indices)
        assert 30 in alarm_bins
        assert alarm_flows[alarm_bins.index(30)] == flow

    def test_model_follows_drift_across_windows(self, fitted):
        dataset, warmup, pipeline = fitted
        detector = pipeline.streaming(forgetting=1.0 / 72.0)
        before = detector.tracker.normal_basis
        for _ in detector.stream(dataset.link_traffic[warmup:], window_bins=36):
            pass
        assert detector.arrivals == dataset.num_bins - warmup
        # The exponentially weighted model must actually have moved.
        assert not np.allclose(before, detector.tracker.normal_basis)

    def test_detection_only_without_routing(self, fitted):
        dataset, warmup, _ = fitted
        detector = StreamingDetector(
            IncrementalSubspaceTracker(normal_rank=3).warm_up(
                dataset.link_traffic[:warmup]
            )
        )
        window = detector.process_window(dataset.link_traffic[warmup : warmup + 12])
        assert window.flow_indices.size == 0
        assert window.od_pairs == ()

    def test_alarm_no_flow_can_explain_stays_unidentified(
        self, blind_routing
    ):
        warmup, routing, block = blind_routing
        detector = StreamingDetector(
            IncrementalSubspaceTracker(normal_rank=2).warm_up(warmup),
            routing=routing,
        )
        window = detector.process_window(block)
        assert window.anomalous_bins.tolist() == [1]
        assert window.flow_indices.size == 0
        assert window.od_pairs == ()

    def test_invalid_window_shapes_rejected(self, fitted):
        dataset, warmup, pipeline = fitted
        with pytest.raises(ModelError):
            list(pipeline.stream(dataset.link_traffic[warmup], window_bins=4))
        with pytest.raises(ModelError):
            list(pipeline.stream(dataset.link_traffic[warmup:], window_bins=0))


class TestBlockUpdateParity:
    """The vectorized fold must reproduce the per-arrival recursion."""

    def test_update_block_matches_sequential_updates(self, small_dataset):
        traffic = small_dataset.link_traffic
        loop = IncrementalSubspaceTracker(
            normal_rank=4, forgetting=1.0 / 200.0, refresh_interval=10**9
        ).warm_up(traffic[:100])
        block = IncrementalSubspaceTracker(
            normal_rank=4, forgetting=1.0 / 200.0, refresh_interval=10**9
        ).warm_up(traffic[:100])

        for row in traffic[100:250]:
            loop.update(row)
        block.update_block(traffic[100:250], refresh=False)

        assert np.allclose(loop.mean, block.mean, rtol=1e-10)
        assert np.allclose(loop._cov, block._cov, rtol=1e-8)

    def test_block_scores_match_pre_window_model(self, small_dataset):
        traffic = small_dataset.link_traffic
        tracker = IncrementalSubspaceTracker(normal_rank=4).warm_up(traffic[:100])
        threshold = tracker.threshold  # pre-fold limit; refresh moves it
        expected = np.array([tracker.spe(row) for row in traffic[100:130]])
        spe, flags = tracker.update_block(traffic[100:130])
        assert np.allclose(spe, expected, rtol=1e-12)
        assert np.array_equal(flags, expected > threshold)

    def test_warm_up_from_moments_matches_warm_up(self, small_dataset):
        traffic = small_dataset.link_traffic[:200]
        direct = IncrementalSubspaceTracker(normal_rank=3).warm_up(traffic)
        mean = traffic.mean(axis=0)
        centered = traffic - mean
        cov = (centered.T @ centered) / (traffic.shape[0] - 1)
        seeded = IncrementalSubspaceTracker(normal_rank=3).warm_up_from_moments(
            mean, cov
        )
        assert np.allclose(direct.threshold, seeded.threshold, rtol=1e-9)
        assert np.allclose(
            np.abs(direct.normal_basis.T @ seeded.normal_basis),
            np.eye(3),
            atol=1e-7,
        )

    def test_streaming_seed_equals_batch_model(self, fitted):
        dataset, warmup, pipeline = fitted
        detector = pipeline.streaming()
        batch_spe = np.asarray(
            pipeline.detector.model.spe(dataset.link_traffic[warmup : warmup + 20])
        )
        stream_spe = detector.tracker.spe_block(
            dataset.link_traffic[warmup : warmup + 20]
        )
        assert np.allclose(stream_spe, batch_spe, rtol=1e-6)
        assert detector.threshold == pytest.approx(pipeline.threshold, rel=1e-9)


class TestStreamingEdgeCases:
    """Boundary behavior: tiny windows, straddling anomalies, empty
    streams, and the degenerate full-rank model."""

    def test_window_smaller_than_anomaly_duration(self, fitted):
        """A long square anomaly chopped into several windows is
        flagged in every window it touches."""
        dataset, warmup, pipeline = fitted
        stream = dataset.link_traffic[warmup:].copy()
        flow = dataset.routing.od_index("lon", "zur")
        span = np.arange(30, 42)  # 12 bins, window is 5
        stream[span] += 3.0e8 * dataset.routing.column(flow)
        alarm_bins = []
        touched_windows = set()
        # Near-zero forgetting pins the model, so the test isolates the
        # windowing mechanics from adaptive absorption of the anomaly.
        stream_iter = pipeline.stream(stream, window_bins=5, forgetting=1e-9)
        for index, window in enumerate(stream_iter):
            alarm_bins.extend(int(b) for b in window.anomalous_bins)
            if window.num_alarms:
                touched_windows.add(index)
        assert set(span) <= set(alarm_bins)
        assert len(touched_windows) >= 3  # 12 bins / 5-bin windows

    def test_anomaly_straddles_a_window_boundary(self, fitted):
        """Both fragments of an anomaly split by a window boundary are
        flagged — scoring is per-row, not per-window."""
        dataset, warmup, pipeline = fitted
        stream = dataset.link_traffic[warmup:].copy()
        flow = dataset.routing.od_index("lon", "zur")
        span = np.arange(21, 27)  # straddles the 24-bin boundary
        stream[span] += 3.0e8 * dataset.routing.column(flow)
        windows = list(pipeline.stream(stream, window_bins=24))
        first, second = windows[0], windows[1]
        assert {21, 22, 23} <= set(int(b) for b in first.anomalous_bins)
        assert {24, 25, 26} <= set(int(b) for b in second.anomalous_bins)

    def test_empty_stream_yields_no_windows(self, fitted):
        dataset, _, pipeline = fitted
        detector = pipeline.streaming()
        empty = np.empty((0, dataset.num_links))
        assert list(detector.stream(empty)) == []
        assert detector.arrivals == 0

    def test_empty_window_is_a_noop(self, fitted):
        dataset, _, pipeline = fitted
        detector = pipeline.streaming()
        before = detector.tracker.mean.copy()
        window = detector.process_window(np.empty((0, dataset.num_links)))
        assert window.num_alarms == 0
        assert window.spe.shape == (0,)
        assert window.anomalous_bins.size == 0
        assert detector.arrivals == 0
        assert np.array_equal(detector.tracker.mean, before)

    def test_empty_window_does_not_reset_the_refresh_cadence(self, fitted):
        """Regression pin: a zero-row window must not refresh.

        The default ``refresh=True`` path used to re-run the eigensolver
        on the unchanged covariance and zero ``since_refresh``, silently
        postponing the next *scheduled* refresh every time an idle
        stream processed an empty window.
        """
        dataset, warmup, pipeline = fitted
        detector = pipeline.streaming(refresh_interval=5)
        tracker = detector.tracker
        tracker.update_block(
            dataset.link_traffic[warmup : warmup + 3], refresh=False
        )
        assert tracker.since_refresh == 3
        empty = np.empty((0, dataset.num_links))
        detector.process_window(empty)  # default refresh=True
        assert tracker.since_refresh == 3  # cadence untouched
        tracker.update_block(empty, refresh=True)
        assert tracker.since_refresh == 3
        # Two more arrivals reach the interval and refresh on schedule.
        tracker.update_block(
            dataset.link_traffic[warmup + 3 : warmup + 5], refresh=False
        )
        assert tracker.since_refresh == 0

    def test_refresh_interval_one_refreshes_after_every_single_row(
        self, fitted
    ):
        """Per-row feeds with ``refresh_interval=1`` refresh after
        *every* arrival, and each row is scored under the model
        refreshed at the previous one — bit-identical to forcing
        ``refresh=True`` per row."""
        dataset, warmup, pipeline = fitted
        cadence = pipeline.streaming(refresh_interval=1)
        forced = pipeline.streaming(refresh_interval=1)
        for row in dataset.link_traffic[warmup : warmup + 40]:
            spe_c, flags_c = cadence.tracker.update_block(
                row[None, :], refresh=False
            )
            spe_f, flags_f = forced.tracker.update_block(
                row[None, :], refresh=True
            )
            assert cadence.tracker.since_refresh == 0
            assert np.array_equal(spe_c, spe_f)
            assert np.array_equal(flags_c, flags_f)
            assert cadence.tracker.threshold == forced.tracker.threshold
        assert np.array_equal(
            cadence.tracker.normal_basis, forced.tracker.normal_basis
        )

    def test_window_larger_than_stream(self, fitted):
        """A single short final window covers the whole stream."""
        dataset, warmup, pipeline = fitted
        stream = dataset.link_traffic[warmup : warmup + 7]
        windows = list(pipeline.stream(stream, window_bins=50))
        assert len(windows) == 1
        assert windows[0].flags.size == 7

    def test_full_rank_model_raises_no_dust_alarms(self, fitted):
        """With every axis in the normal subspace the residual is
        exactly zero: no alarms from 1e-16 numerical dust (regression
        for the degenerate-rank fix)."""
        dataset, warmup, _ = fitted
        detector = StreamingDetector(
            IncrementalSubspaceTracker(normal_rank=dataset.num_links).warm_up(
                dataset.link_traffic[:warmup]
            ),
            routing=dataset.routing,
        )
        window = detector.process_window(dataset.link_traffic[warmup:])
        assert window.threshold == 0.0
        assert np.array_equal(window.spe, np.zeros(window.spe.shape))
        assert window.num_alarms == 0


def assert_same_window(got, want):
    assert got.start_index == want.start_index
    assert got.threshold == want.threshold
    for field in (
        "spe", "flags", "anomalous_bins", "flow_indices", "estimated_bytes"
    ):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert got.od_pairs == want.od_pairs


def assert_same_tracker(got, want):
    assert got.since_refresh == want.since_refresh
    assert got.threshold == want.threshold
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.normal_basis, want.normal_basis)


class TestPerArrival:
    """One-row windows with ``refresh=False``: the refresh keeps the
    tracker's ``refresh_interval`` cadence in arrivals, and
    ``tracker.since_refresh`` is the model's age."""

    def test_requires_warm_up(self, sprint1):
        detector = StreamingDetector(IncrementalSubspaceTracker(normal_rank=3))
        with pytest.raises(NotFittedError):
            detector.process_window(sprint1.link_traffic[:1], refresh=False)

    def test_processes_and_counts(self, sprint1):
        """Each one-row window starts at its arrival index, and its
        alarm is reported under that index."""
        pipeline = DetectionPipeline().fit(sprint1.link_traffic[:288])
        detector = pipeline.streaming(forgetting=1.0 / 288, refresh_interval=None)
        windows = [
            detector.process_window(row[None, :], refresh=False)
            for row in sprint1.link_traffic[288:432]
        ]
        assert [window.start_index for window in windows] == list(range(144))
        assert [window.flags.size for window in windows] == [1] * 144
        assert detector.arrivals == 144
        alarms = [int(b) for window in windows for b in window.anomalous_bins]
        assert alarms == [i for i, w in enumerate(windows) if w.flags[0]]

    def test_model_age_resets_every_refresh_interval(self, sprint1):
        pipeline = DetectionPipeline().fit(sprint1.link_traffic[:288])
        detector = pipeline.streaming(forgetting=1.0 / 288, refresh_interval=50)
        ages = []
        for row in sprint1.link_traffic[288:408]:
            ages.append(detector.tracker.since_refresh)
            detector.process_window(row[None, :], refresh=False)
        assert ages == [index % 50 for index in range(120)]
        assert detector.arrivals == 120

    def test_spike_on_one_flow_is_identified_with_its_bytes(self, sprint1):
        pipeline = DetectionPipeline().fit(
            sprint1.link_traffic[:504], routing=sprint1.routing
        )
        detector = pipeline.streaming(
            forgetting=1.0 / 504, refresh_interval=None
        )
        flow = sprint1.routing.od_index("lon", "mad")
        spiked = sprint1.link_traffic[600] + 6e7 * sprint1.routing.column(flow)
        window = detector.process_window(spiked[None, :], refresh=False)
        assert window.flags.tolist() == [True]
        assert window.flow_indices.tolist() == [flow]
        assert window.od_pairs == (("lon", "mad"),)
        assert window.estimated_bytes[0] == pytest.approx(6e7, rel=0.35)

    def test_no_identification_without_routing(self, sprint1):
        pipeline = DetectionPipeline().fit(sprint1.link_traffic[:504])
        detector = pipeline.streaming(
            forgetting=1.0 / 504, refresh_interval=None
        )
        flow = sprint1.routing.od_index("lon", "mad")
        spiked = sprint1.link_traffic[600] + 8e7 * sprint1.routing.column(flow)
        window = detector.process_window(spiked[None, :], refresh=False)
        assert window.anomalous_bins.tolist() == [0]
        assert window.flow_indices.size == 0
        assert window.od_pairs == ()

    def test_alarms_match_batch_detect_without_refreshes(self, sprint1):
        """With refreshes disabled the basis stays at the warm-up model:
        alarms match batch ``detect``, and scores stay within the small
        drift of the exponentially folded mean."""
        train = sprint1.link_traffic[:504]
        test = sprint1.link_traffic[504:648]
        pipeline = DetectionPipeline().fit(train)
        expected = pipeline.detect(test)
        detector = pipeline.streaming(
            forgetting=1.0 / 504, refresh_interval=None
        )
        windows = [
            detector.process_window(row[None, :], refresh=False)
            for row in test
        ]
        flags = np.concatenate([window.flags for window in windows])
        spe = np.concatenate([window.spe for window in windows])
        assert np.array_equal(flags, expected.flags)
        assert np.allclose(spe, expected.spe, rtol=0.05)
        assert detector.tracker.since_refresh == test.shape[0]
        assert detector.threshold == pytest.approx(pipeline.threshold, rel=1e-9)


    def test_one_row_windows_track_per_row_updates(self, sprint1):
        """The two per-arrival surfaces keep one cadence: one-row
        windows and ``tracker.update`` refresh at the same arrivals and
        raise the same alarms, with scores equal to rounding."""
        pipeline = DetectionPipeline().fit(sprint1.link_traffic[:288])
        windowed = pipeline.streaming(forgetting=1.0 / 288, refresh_interval=24)
        per_row = pipeline.streaming(forgetting=1.0 / 288, refresh_interval=24)
        for row in sprint1.link_traffic[288:432]:
            window = windowed.process_window(row[None, :], refresh=False)
            spe, is_anomalous = per_row.tracker.update(row)
            assert window.spe[0] == pytest.approx(spe, rel=1e-9)
            assert bool(window.flags[0]) == is_anomalous
            assert (
                windowed.tracker.since_refresh == per_row.tracker.since_refresh
            )
        assert windowed.threshold == pytest.approx(per_row.threshold, rel=1e-9)

    def test_vector_shape_validation(self, sprint1):
        """An arrival is a one-row window: a bare vector or a row of the
        wrong width is refused, and nothing is counted."""
        pipeline = DetectionPipeline().fit(sprint1.link_traffic[:288])
        detector = pipeline.streaming()
        row = sprint1.link_traffic[300]
        with pytest.raises(ModelError):
            detector.process_window(row, refresh=False)
        with pytest.raises(ModelError):
            detector.process_window(row[None, :-1], refresh=False)
        assert detector.arrivals == 0
        assert detector.tracker.since_refresh == 0


class TestNonFiniteRows:
    """A non-finite row is refused before it is scored or folded, so
    one bad window cannot poison the moments of every later one."""

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_bad_window_raises_and_changes_nothing(self, fitted, bad_value):
        dataset, warmup, pipeline = fitted
        rows = dataset.link_traffic[warmup : warmup + 40]
        detector = pipeline.streaming(refresh_interval=8)
        clean = pipeline.streaming(refresh_interval=8)
        detector.process_window(rows[:5], refresh=False)
        clean.process_window(rows[:5], refresh=False)

        bad = rows[5:15].copy()
        bad[4, 7] = bad_value
        with pytest.raises(ModelError, match="non-finite"):
            detector.process_window(bad)
        with pytest.raises(ModelError, match="non-finite"):
            detector.process_window(bad[4:5], refresh=False)
        assert detector.arrivals == clean.arrivals == 5
        assert_same_tracker(detector.tracker, clean.tracker)

        for start, stop in ((5, 20), (20, 40)):
            assert_same_window(
                detector.process_window(rows[start:stop], refresh=False),
                clean.process_window(rows[start:stop], refresh=False),
            )
        assert_same_tracker(detector.tracker, clean.tracker)

    def test_bad_arrival_raises_and_changes_nothing(self, fitted):
        dataset, warmup, pipeline = fitted
        rows = dataset.link_traffic[warmup : warmup + 12]
        tracker = pipeline.streaming(refresh_interval=4).tracker
        clean = pipeline.streaming(refresh_interval=4).tracker
        for row in rows[:3]:
            tracker.update(row)
            clean.update(row)
        bad = rows[3].copy()
        bad[0] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            tracker.update(bad)
        assert_same_tracker(tracker, clean)
        for row in rows[3:]:
            assert tracker.update(row) == clean.update(row)
        assert_same_tracker(tracker, clean)

    def test_stateless_scoring_still_scores_nan(self, fitted):
        """``spe``/``spe_block`` change no state, so they score a NaN
        row as batch ``detect`` does: a NaN SPE, no alarm."""
        dataset, warmup, pipeline = fitted
        tracker = pipeline.streaming().tracker
        block = dataset.link_traffic[warmup : warmup + 3].copy()
        block[1, 0] = np.nan
        spe = tracker.spe_block(block)
        assert np.isnan(spe[1]) and np.isfinite(spe[[0, 2]]).all()
        assert np.isnan(tracker.spe(block[1]))
        batch = pipeline.detect(block)
        assert np.isnan(batch.spe[1]) and not batch.flags[1]
