"""The transport-agnostic engine: scoring, accounting, refits, health."""

import numpy as np
import pytest

from repro.core import IncrementalSubspaceTracker
from repro.exceptions import IngestError, ServiceError
from repro.pipeline import DetectionPipeline
from repro.service import ServiceConfig


def exposed(text: str, name: str) -> float:
    """The sample value of an unlabeled metric in an exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{name} is not exposed")


class TrackerReplay:
    """The engine's drift telemetry, replayed on the eager schedule.

    Seeded from the active version the way the engine seeds its tracker
    and fed the same blocks through ``update_block(refresh=False)``,
    then read after every block, so each refresh point is solved the
    moment it is crossed.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.reseed()

    def reseed(self) -> None:
        config = self.service.config
        self.version = self.service.lifecycle.current
        pca = self.version.detector.model.pca
        covariance = (pca.components * pca.eigenvalues()) @ pca.components.T
        self.tracker = IncrementalSubspaceTracker(
            normal_rank=self.version.normal_rank,
            forgetting=config.forgetting,
            confidence=config.confidence,
            refresh_interval=config.tracker_refresh_interval,
        ).warm_up_from_moments(pca.mean, covariance)
        self.tracker.threshold  # eager: solve the seed at once

    def fold(self, block) -> None:
        """Replay one engine fold; reseed if it ended in a hot-swap."""
        self.tracker.update_block(np.atleast_2d(block), refresh=False)
        self.tracker.threshold  # eager: solve any crossing at once
        lifecycle = self.service.lifecycle
        if lifecycle.current is not self.version:
            # The replay folds whole blocks: a swap must end one.
            assert lifecycle.current.activated_at_row == lifecycle.rows
            self.reseed()

    def assert_matches(self, text: str) -> None:
        reference = self.version.detector.model.pca.components[
            :, : self.version.normal_rank
        ]
        assert exposed(text, "repro_tracker_threshold") == (
            self.tracker.threshold
        )
        assert exposed(text, "repro_tracker_drift_radians") == (
            self.tracker.drift_from(reference)
        )


class TestIngestScoring:
    def test_rows_score_bit_identically_to_batch_detect(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        stream = dataset.link_traffic[warmup:]
        outcomes = [service.ingest_row(row) for row in stream]
        batch = DetectionPipeline(svd_method="gram").fit(
            dataset.link_traffic[:warmup], routing=dataset.routing
        ).detect(stream)
        assert np.array_equal(
            np.array([o.spe for o in outcomes]), batch.spe
        )
        assert [o.bin for o in outcomes if o.flag] == [
            int(b) for b in batch.anomalous_bins
        ]
        assert all(o.threshold == batch.threshold for o in outcomes)
        assert all(o.model_version == 1 for o in outcomes)

    def test_flagged_rows_are_identified_and_quantified(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        flow = dataset.routing.od_index("lon", "zur")
        spike = dataset.link_traffic[warmup] + 5.0e8 * dataset.routing.column(
            flow
        )
        outcome = service.ingest_row(spike)
        assert outcome.flag
        assert outcome.flow_index == flow
        assert outcome.od_pair == ("lon", "zur")
        assert outcome.estimated_bytes is not None
        payload = outcome.to_json()
        assert payload["flow_index"] == flow
        assert payload["od_pair"] == ["lon", "zur"]

    def test_detection_only_without_routing(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service(routing=False)
        flow = dataset.routing.od_index("lon", "zur")
        spike = dataset.link_traffic[warmup] + 5.0e8 * dataset.routing.column(
            flow
        )
        outcome = service.ingest_row(spike)
        assert outcome.flag
        assert outcome.flow_index is None
        assert "flow_index" not in outcome.to_json()

    def test_counters_gauges_and_events_track_ingest(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        flow = dataset.routing.od_index("lon", "zur")
        spike = dataset.link_traffic[warmup] + 5.0e8 * dataset.routing.column(
            flow
        )
        service.ingest_row(dataset.link_traffic[warmup])
        service.ingest_row(spike)
        registry = service.metrics
        assert registry["repro_rows_ingested_total"].value() == 2
        assert registry["repro_alarms_total"].value() == 1
        assert registry["repro_ingest_latency_seconds"].count == 2
        alarms = [e for e in service.events.tail() if e["kind"] == "alarm"]
        assert len(alarms) == 1
        assert alarms[0]["bin"] == 1
        assert alarms[0]["model_version"] == 1


class TestIngestValidation:
    @pytest.mark.parametrize(
        "row, reason",
        [
            ("not a row", "bad_payload"),
            ([[1.0, 2.0]], "bad_payload"),
            ([1.0, 2.0, 3.0], "wrong_width"),
        ],
    )
    def test_malformed_rows_rejected_with_reason(
        self, make_service, row, reason
    ):
        service = make_service()
        with pytest.raises(IngestError) as excinfo:
            service.ingest_row(row)
        assert excinfo.value.reason == reason
        assert service.metrics["repro_ingest_errors_total"].value(reason) == 1
        assert service.rows_ingested == 0

    def test_non_finite_rows_rejected(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        row = dataset.link_traffic[warmup].copy()
        row[0] = np.nan
        with pytest.raises(IngestError) as excinfo:
            service.ingest_row(row)
        assert excinfo.value.reason == "non_finite"

    def test_bin_sequencing(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        stream = dataset.link_traffic[warmup:]
        service.ingest_row(stream[0], bin_id=0)
        with pytest.raises(IngestError) as excinfo:
            service.ingest_row(stream[1], bin_id=0)
        assert excinfo.value.reason == "duplicate_bin"
        with pytest.raises(IngestError) as excinfo:
            service.ingest_row(stream[1], bin_id=5)
        assert excinfo.value.reason == "out_of_order_bin"
        # The stream position never advanced on the rejects.
        assert service.ingest_row(stream[1], bin_id=1).bin == 1

    def test_rejections_log_events_and_leave_state_clean(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        with pytest.raises(IngestError):
            service.ingest_row([1.0])
        errors = [
            e for e in service.events.tail() if e["kind"] == "ingest_error"
        ]
        assert len(errors) == 1
        assert errors[0]["reason"] == "wrong_width"
        outcome = service.ingest_row(dataset.link_traffic[warmup])
        assert outcome.bin == 0

    def test_batch_ingest_stops_at_first_rejection(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        rows = [
            dataset.link_traffic[warmup],
            [1.0, 2.0],
            dataset.link_traffic[warmup + 1],
        ]
        with pytest.raises(IngestError):
            service.ingest_rows(rows)
        assert service.rows_ingested == 1  # the first row stayed

    def test_unknown_error_reason_rejected(self, make_service):
        service = make_service()
        with pytest.raises(ServiceError, match="unknown error reason"):
            service.record_error("no_such_reason")


class TestRefits:
    def test_manual_refit_swaps_and_accounts(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        for row in dataset.link_traffic[warmup : warmup + 20]:
            service.ingest_row(row)
        version = service.refit()
        assert version.version == 2
        assert version.trained_rows == warmup + 20
        registry = service.metrics
        assert registry["repro_refits_total"].value() == 1
        assert registry["repro_model_swaps_total"].value() == 1
        swaps = [
            e for e in service.events.tail() if e["kind"] == "model_swap"
        ]
        assert len(swaps) == 1 and swaps[0]["version"] == 2

    def test_synchronous_auto_refit_has_deterministic_boundaries(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(refit_interval=10, synchronous_refit=True)
        )
        for row in dataset.link_traffic[warmup : warmup + 25]:
            service.ingest_row(row)
        history = service.lifecycle.version_history()
        assert [v.activated_at_row for v in history] == [
            warmup,
            warmup + 10,
            warmup + 20,
        ]

    def test_background_auto_refit_completes(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service(config=ServiceConfig(refit_interval=15))
        for row in dataset.link_traffic[warmup : warmup + 15]:
            service.ingest_row(row)
        service.wait_for_refit(timeout=30)
        assert service.lifecycle.current.version == 2
        assert service.metrics["repro_refits_total"].value() == 1

    def test_failed_refit_is_counted_and_survivable(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        boom = {"armed": False}

        def hook():
            if boom["armed"]:
                raise RuntimeError("injected refit failure")

        service = make_service(refit_hook=hook)
        service.ingest_row(dataset.link_traffic[warmup])
        boom["armed"] = True
        with pytest.raises(ServiceError, match="refit failed"):
            service.refit()
        assert service.lifecycle.current.version == 1
        registry = service.metrics
        assert registry["repro_refit_failures_total"].value() == 1
        assert registry["repro_ingest_errors_total"].value("refit_failed") == 1
        assert service.health()["status"] == "ok"
        assert service.health()["last_refit_error"] is not None
        boom["armed"] = False
        assert service.refit().version == 2
        assert service.health()["last_refit_error"] is None


class TestObservability:
    def test_health_payload(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        service.ingest_row(dataset.link_traffic[warmup])
        health = service.health()
        assert health["status"] == "ok"
        assert health["model_version"] == 1
        assert health["rows_ingested"] == 1
        assert health["warmup_rows"] == warmup
        assert health["num_links"] == dataset.num_links

    def test_version_info_reports_history(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        service.ingest_row(dataset.link_traffic[warmup])
        service.refit()
        info = service.version_info()
        assert info["current"]["version"] == 2
        assert [v["version"] for v in info["history"]] == [1, 2]
        assert info["history"][0]["retired_at_row"] == warmup + 1

    def test_metrics_text_exposes_the_catalog(
        self, service_split, make_service
    ):
        dataset, warmup = service_split
        service = make_service()
        service.ingest_row(dataset.link_traffic[warmup])
        text = service.metrics_text()
        for name in (
            "repro_rows_ingested_total",
            "repro_alarms_total",
            "repro_ingest_errors_total",
            "repro_refits_total",
            "repro_refit_failures_total",
            "repro_model_swaps_total",
            "repro_spe_last",
            "repro_spe_threshold",
            "repro_normal_rank",
            "repro_model_version",
            "repro_model_refresh_age_rows",
            "repro_tracker_threshold",
            "repro_tracker_drift_radians",
            "repro_ingest_latency_seconds",
        ):
            assert f"# TYPE {name} " in text

    def test_drift_tracker_follows_but_never_scores(
        self, service_split, make_service
    ):
        """The tracker folds every arrival — its gauges, read through
        the exposition, move and match an eager replay — while the
        scoring threshold stays pinned to the active version."""
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(forgetting=1.0 / 36.0)
        )
        replay = TrackerReplay(service)
        version = service.lifecycle.current
        seeded = exposed(service.metrics_text(), "repro_tracker_threshold")
        thresholds = set()
        for row in dataset.link_traffic[warmup : warmup + 40]:
            thresholds.add(service.ingest_row(row).threshold)
            replay.fold(row)
        assert thresholds == {version.threshold}  # scoring never drifted
        text = service.metrics_text()
        replay.assert_matches(text)
        # The refresh at row 36 moved the telemetry off its seed.
        assert exposed(text, "repro_tracker_threshold") != seeded

    def test_close_emits_stop_event(self, service_split, make_service):
        dataset, warmup = service_split
        service = make_service()
        service.ingest_row(dataset.link_traffic[warmup])
        service.close()
        stop = [
            e for e in service.events.tail() if e["kind"] == "service_stop"
        ]
        assert len(stop) == 1
        assert stop[0]["rows_ingested"] == 1


class TestTrackerTelemetry:
    """Ingest only folds the drift tracker; exposition computes its gauges."""

    @pytest.mark.parametrize("refresh_interval", [1, 36, None])
    def test_gauges_match_an_eager_replay_at_every_scrape(
        self, service_split, make_service, refresh_interval
    ):
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(
                forgetting=1.0 / 36.0,
                tracker_refresh_interval=refresh_interval,
                refit_interval=60,
                synchronous_refit=True,
            )
        )
        replay = TrackerReplay(service)
        stream = dataset.link_traffic[warmup:]
        stream = np.vstack([stream, stream[::-1] * 1.01, stream * 0.99])
        # Block ends land on every synchronous refit (60 rows after the
        # last swap), so each swap falls between two folds of the replay.
        sizes = [7, 0, 13, 40, 1, 1, 18, 40, 10, 20, 25, 35, 3, 2, 15]
        scrape_after = {1, 3, 4, 7, 8, 11, 14}
        position = 0
        for step, size in enumerate(sizes):
            block = stream[position : position + size]
            position += size
            if size == 1:
                service.ingest_row(block[0])
            else:
                assert service.ingest_block(block).accepted == size
            replay.fold(block)
            if step == 9:
                service.refit()  # a manual hot-swap between folds
                replay.reseed()
            if step in scrape_after:
                replay.assert_matches(service.metrics_text())
        assert service.lifecycle.current.version >= 4
        replay.assert_matches(service.metrics_text())

    def test_drift_follows_a_swap_made_behind_the_engine(
        self, service_split, make_service
    ):
        """A version activated on the lifecycle directly keeps the
        engine's tracker but moves the drift reference: the next scrape
        recomputes the drift although no new eigensolve ran."""
        dataset, warmup = service_split
        service = make_service()
        replay = TrackerReplay(service)
        block = dataset.link_traffic[warmup : warmup + 40]
        service.ingest_block(block)
        replay.fold(block)
        replay.assert_matches(service.metrics_text())
        service.lifecycle.refit()
        replay.version = service.lifecycle.current
        replay.assert_matches(service.metrics_text())

    def test_ingest_runs_no_eigensolve_until_the_scrape(
        self, service_split, make_service, monkeypatch
    ):
        """A repeatable count, independent of host speed: 1000 rows of
        block ingest run no eigensolve and no principal-angle SVD; the
        next scrape runs one of each, and a scrape with no new rows
        runs none."""
        dataset, warmup = service_split
        service = make_service()
        service.metrics_text()
        counts = {"eigh": 0, "svd": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapper)

        counted("eigh")
        counted("svd")
        stream = np.tile(dataset.link_traffic[warmup:], (12, 1))[:1000]
        for start in range(0, 1000, 50):
            assert service.ingest_block(stream[start : start + 50]).accepted
        assert service.rows_ingested == 1000
        assert counts == {"eigh": 0, "svd": 0}
        service.metrics_text()
        assert counts == {"eigh": 1, "svd": 1}
        service.metrics_text()
        assert counts == {"eigh": 1, "svd": 1}
