"""The transport-agnostic engine: scoring, accounting, refits, health."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.service.engine as engine
from repro.core.suffstats import DEFAULT_TILE_ROWS, RowStore
from repro.exceptions import IngestError, ServiceError
from repro.pipeline import DetectionPipeline
from repro.service import (
    MAX_LINK_COUNT,
    DetectionService,
    EventLog,
    ServiceConfig,
)


def exposed(text: str, name: str) -> float:
    """The sample value of an unlabeled metric in an exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{name} is not exposed")


class DriftReplay:
    """The engine's drift telemetry, replayed from the rows by its rule.

    Keeps the warmup rows and every accepted row.  Each check recomputes
    the gauges from the last complete tile of those rows and the active
    version (the ``drift_replay`` fixture), so the reference knows
    nothing of how requests split the rows or where the engine solved.
    """

    def __init__(self, service, warmup, replay) -> None:
        self.service = service
        self.replay = replay
        self.rows = [np.asarray(warmup)]

    def accept(self, block) -> None:
        """Record rows the service accepted."""
        self.rows.append(np.atleast_2d(block))

    def assert_matches(self, text: str) -> None:
        threshold, drift = self.replay(
            self.service.lifecycle.current, np.vstack(self.rows)
        )
        assert exposed(text, "repro_tracker_threshold") == threshold
        assert exposed(text, "repro_tracker_drift_radians") == drift


def long_stream(dataset, warmup: int, rows: int) -> np.ndarray:
    """``rows`` stream rows: the dataset's stream rows, then scaled and
    reversed copies of them, so every tile of the history differs."""
    stream = dataset.link_traffic[warmup:]
    copies = -(-rows // stream.shape[0])
    return np.vstack(
        [
            (stream if k % 2 == 0 else stream[::-1]) * (1.0 + 0.01 * k)
            for k in range(copies)
        ]
    )[:rows]


def assert_served_where_recorded(outcomes, history, warmup) -> None:
    """Each outcome's ``model_version`` is the one ``history`` (the
    version summaries) records as active at its row."""
    for outcome in outcomes:
        row = warmup + outcome.bin
        assert [
            v["version"]
            for v in history
            if v["activated_at_row"] <= row
            and (v["retired_at_row"] is None or row < v["retired_at_row"])
        ] == [outcome.model_version]


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

    def test_alarm_no_flow_can_explain_is_served_unidentified(
        self, blind_routing
    ):
        """With no flow visible in the residual subspace, the alarm is
        served and logged as a service without routing serves it — the
        block is ingested, not lost to an identification error."""
        warmup, routing, block = blind_routing
        config = ServiceConfig(normal_rank=2)
        service = DetectionService.from_warmup(
            warmup, routing=routing, config=config
        )
        blind = DetectionService.from_warmup(warmup, config=config)
        result = service.ingest_block(block)
        assert result.accepted == 3 and result.rejected is None
        assert [o.bin for o in result.outcomes if o.flag] == [1]
        assert [o.to_json() for o in result.outcomes] == [
            o.to_json() for o in blind.ingest_block(block).outcomes
        ]
        alarms = [e for e in service.events.tail() if e["kind"] == "alarm"]
        assert len(alarms) == 1 and "flow_index" not in alarms[0]
        assert service.health()["rows_ingested"] == 3

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

    def test_ingest_row_events_are_on_disk_when_it_returns(
        self, tmp_path, service_split, make_service
    ):
        """``ingest_row`` is a one-row block, whose events are buffered;
        it flushes them before returning or raising, so a reader of the
        log file sees every event of the row."""
        dataset, warmup = service_split
        path = tmp_path / "events.jsonl"
        service = make_service(event_log=EventLog(path))
        flow = dataset.routing.od_index("lon", "zur")
        spike = dataset.link_traffic[warmup] + 5.0e8 * dataset.routing.column(
            flow
        )
        try:
            service.ingest_row(spike)
            kinds = [e["kind"] for e in EventLog.read_jsonl(path)]
            assert kinds == ["service_start", "alarm"]
            with pytest.raises(IngestError):
                service.ingest_row([1.0, 2.0])
            kinds = [e["kind"] for e in EventLog.read_jsonl(path)]
            assert kinds == ["service_start", "alarm", "ingest_error"]
        finally:
            service.close()


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

    def test_link_count_bound_is_inclusive(self, service_split, make_service):
        """±MAX_LINK_COUNT is admitted, the next double out is not, and
        a row that is both non-finite and out of range is non_finite."""
        dataset, warmup = service_split
        service = make_service()
        row = dataset.link_traffic[warmup].copy()
        for value in (MAX_LINK_COUNT, -MAX_LINK_COUNT):
            row[0] = value
            service.ingest_row(row)
        for value in (np.nextafter(MAX_LINK_COUNT, np.inf), -1e300):
            row[0] = value
            with pytest.raises(IngestError) as excinfo:
                service.ingest_row(row)
            assert excinfo.value.reason == "out_of_range"
        row[1] = np.inf
        with pytest.raises(IngestError) as excinfo:
            service.ingest_row(row)
        assert excinfo.value.reason == "non_finite"
        assert service.rows_ingested == 2

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
        history = service.lifecycle.version_summaries()
        assert [v["activated_at_row"] for v in history] == [
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

    def test_background_swap_lands_between_blocks(
        self, service_split, make_service, monkeypatch
    ):
        """A background refit whose fit finishes while a block is being
        scored swaps after that block, so every served
        ``model_version`` agrees with the ``version_summaries()``
        boundaries.  Two events force the interleaving: the fit waits
        until the block is scored, and the block waits before its
        history append until the swap lands — or, when the swap waits
        for the block, until a timeout passes."""
        dataset, warmup = service_split
        scored, swapped = threading.Event(), threading.Event()
        armed = {"fit": False}

        def hook():
            if armed["fit"]:
                scored.wait(timeout=10)

        service = make_service(refit_hook=hook)
        stream = dataset.link_traffic[warmup : warmup + 40]
        outcomes = list(service.ingest_block(stream[:20]).outcomes)
        lifecycle = service.lifecycle
        append_rows, activate = lifecycle.append_rows, lifecycle.activate

        def paused_append(block):
            scored.set()
            swapped.wait(timeout=1.0)
            append_rows(block)

        def signalled_activate(*args):
            version = activate(*args)
            swapped.set()
            return version

        monkeypatch.setattr(lifecycle, "append_rows", paused_append)
        monkeypatch.setattr(lifecycle, "activate", signalled_activate)
        armed["fit"] = True
        assert service.request_refit()
        served = []
        writer = threading.Thread(
            target=lambda: served.append(service.ingest_block(stream[20:30]))
        )
        writer.start()
        writer.join(timeout=30)
        service.wait_for_refit(timeout=30)
        assert not writer.is_alive()
        assert not service.health()["refit_in_flight"]
        monkeypatch.undo()
        outcomes += served[0].outcomes
        outcomes += service.ingest_block(stream[30:]).outcomes
        history = service.lifecycle.version_summaries()
        assert len(history) == 2
        assert_served_where_recorded(outcomes, history, warmup)
        assert history[1]["activated_at_row"] == warmup + 30

    def test_served_versions_match_boundaries_under_contention(
        self, service_split, make_service
    ):
        """Four writers (more than the cores) post blocks while
        background refits swap every 10 rows, under a short switch
        interval: each served row's ``model_version`` is the one
        ``version_summaries()`` records for its row."""
        dataset, warmup = service_split
        service = make_service(config=ServiceConfig(refit_interval=10))
        stream = np.tile(dataset.link_traffic[warmup:], (4, 1))
        feed = iter(range(0, stream.shape[0], 4))
        feed_lock = threading.Lock()
        outcomes = []

        def writer():
            while True:
                with feed_lock:
                    start = next(feed, None)
                if start is None:
                    return
                result = service.ingest_block(stream[start : start + 4])
                with feed_lock:
                    outcomes.extend(result.outcomes)
                time.sleep(5e-4)  # leave the refit thread room to swap

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=writer) for _ in range(4)]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            service.wait_for_refit(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers)
        assert not service.health()["refit_in_flight"]
        assert len(outcomes) == stream.shape[0]
        history = service.lifecycle.version_summaries()
        assert len(history) >= 2
        assert_served_where_recorded(outcomes, history, warmup)

    def test_retired_detectors_are_released(
        self, service_split, make_service
    ):
        """Every row is spiked along its own flow, so it alarms and each
        version builds its identification state; synchronous refits
        swap every 10 rows, and the run ends on a swap, before the new
        version scores a row.  After it no retired version's detector
        is reachable, through the lifecycle or the engine's
        identification state, and the active one is."""
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(refit_interval=10, synchronous_refit=True)
        )
        routing = dataset.routing
        flows = np.arange(30) * 7 % routing.num_flows
        spiked = (
            dataset.link_traffic[warmup : warmup + 30]
            + 5.0e8 * routing.matrix[:, flows].T
        )
        detectors = {}

        def track():
            version = service.lifecycle.current
            detectors.setdefault(version.version, weakref.ref(version.detector))

        for row, flow in zip(spiked, flows.tolist()):
            track()
            outcome = service.ingest_row(row)
            assert outcome.flag and outcome.flow_index == flow
        track()
        gc.collect()
        assert {v: ref() is None for v, ref in detectors.items()} == {
            1: True, 2: True, 3: True, 4: False,
        }

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

    def test_failing_synchronous_refit_keeps_ingesting(
        self, service_split, make_service
    ):
        """A synchronous refit that keeps failing never stops ingest:
        every block returns every accepted row's outcome under the
        active version, and each failure is counted once, with the
        next attempt due ``refit_interval`` rows after it."""
        dataset, warmup = service_split
        stream = np.vstack([dataset.link_traffic[warmup:]] * 3)[:240]
        attempts = []
        service = None

        def hook():
            if service is not None:  # bootstrap fits; later refits fail
                attempts.append(service.lifecycle.rows - warmup)
                raise RuntimeError("injected refit failure")

        service = make_service(
            config=ServiceConfig(refit_interval=50, synchronous_refit=True),
            refit_hook=hook,
        )
        for start in range(0, 240, 80):
            result = service.ingest_block(stream[start : start + 80])
            assert result.rejected is None
            assert len(result.outcomes) == 80
            assert {o.model_version for o in result.outcomes} == {1}
        assert service.rows_ingested == 240
        assert attempts == [50, 100, 150, 200]
        registry = service.metrics
        assert registry["repro_refit_failures_total"].value() == 4
        assert registry["repro_ingest_errors_total"].value("refit_failed") == 4
        assert registry["repro_rows_ingested_total"].value() == 240
        failed = [e for e in service.events.tail() if e["kind"] == "refit_failed"]
        assert len(failed) == 4
        assert service.lifecycle.current.version == 1


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

    def test_version_history_survives_warm_restarts(
        self, service_split, make_service, tmp_path
    ):
        """``/version`` keeps every version across restarts: a restored
        service reports the writer's history, and its next checkpoint
        writes that history again."""
        dataset, warmup = service_split
        service = make_service()
        for start in (warmup, warmup + 10):
            service.ingest_block(dataset.link_traffic[start : start + 10])
            service.refit()
        path = tmp_path / "service.ckpt"
        service.checkpoint(path)
        restored = DetectionService.from_checkpoint(path)
        assert restored.version_info() == service.version_info()
        assert [
            v["version"] for v in restored.version_info()["history"]
        ] == [1, 2, 3]
        restored.ingest_block(dataset.link_traffic[warmup + 20 : warmup + 30])
        restored.refit()
        restored.checkpoint(path)
        again = DetectionService.from_checkpoint(path)
        assert again.version_info() == restored.version_info()
        history = again.version_info()["history"]
        assert [v["version"] for v in history] == [1, 2, 3, 4]
        assert [v["retired_at_row"] for v in history] == [
            warmup + 10, warmup + 20, warmup + 30, None
        ]

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
        self, service_split, make_service, drift_replay
    ):
        """The drift gauges read the version's own threshold and 0 until
        the history's first tile completes; then they follow that tile
        — read through the exposition, they move and match the replay —
        while the scoring threshold stays pinned to the active
        version."""
        dataset, warmup = service_split
        service = make_service()
        replay = DriftReplay(
            service, dataset.link_traffic[:warmup], drift_replay
        )
        version = service.lifecycle.current
        text = service.metrics_text()
        replay.assert_matches(text)
        assert exposed(text, "repro_tracker_threshold") == version.threshold
        assert exposed(text, "repro_tracker_drift_radians") == 0.0
        thresholds = set()
        stream = long_stream(dataset, warmup, DEFAULT_TILE_ROWS - warmup + 40)
        for start in range(0, stream.shape[0], 50):
            result = service.ingest_block(stream[start : start + 50])
            thresholds.update(o.threshold for o in result.outcomes)
            replay.accept(stream[start : start + 50])
        assert thresholds == {version.threshold}  # scoring never drifted
        text = service.metrics_text()
        replay.assert_matches(text)
        # The tile that completed at history row 1024 moved both gauges.
        assert exposed(text, "repro_tracker_threshold") != version.threshold
        assert exposed(text, "repro_tracker_drift_radians") > 0.0

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

    def test_restored_service_logs_its_checkpointed_warmup(
        self, service_split, tmp_path
    ):
        """``service_start`` of a restored service carries the warmup of
        the service that wrote the checkpoint, the value ``warmup_rows``
        and ``/health`` report — not the whole restored history."""
        dataset, _ = service_split
        rows = np.vstack([dataset.link_traffic, dataset.link_traffic[::-1]])
        service = DetectionService.from_warmup(rows[:300])
        assert service.ingest_block(rows[300:400]).accepted == 100
        path = tmp_path / "service.ckpt"
        service.checkpoint(path)
        restored = DetectionService.from_checkpoint(path)
        start = [
            e for e in restored.events.tail() if e["kind"] == "service_start"
        ]
        assert [e["warmup_rows"] for e in start] == [300]
        assert restored.warmup_rows == 300
        assert restored.health()["warmup_rows"] == 300
        assert restored.rows_ingested == 100


class TestTrackerTelemetry:
    """The gauges are a function of the last complete tile and the
    active version: ingest does no drift work, a gauge refresh solves
    each tile once."""

    def test_gauges_match_an_eager_replay_at_every_scrape(
        self, service_split, make_service, drift_replay
    ):
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(refit_interval=300, synchronous_refit=True)
        )
        replay = DriftReplay(
            service, dataset.link_traffic[:warmup], drift_replay
        )
        # Tiles complete at stream rows 824 and 1848: the first edge
        # ends a request, the second falls inside one.  Synchronous
        # swaps at 300, 600, 900 and 1200 (inside requests), a manual
        # one at 1300, then synchronous ones at 1600 (inside a request)
        # and 1900 (where one ends); scrapes on both sides of each edge.
        ends = [7, 7, 20, 420, 421, 422, 700, 823, 824, 860, 861, 1300,
                1500, 1847, 1900, 2000]
        scrape_after = {1, 3, 7, 8, 9, 11, 13, 14}
        stream = long_stream(dataset, warmup, ends[-1])
        position = 0
        for step, end in enumerate(ends):
            block = stream[position:end]
            if block.shape[0] == 1:
                service.ingest_row(block[0])
            else:
                assert service.ingest_block(block).accepted == end - position
            position = end
            replay.accept(block)
            if end == 1300:
                service.refit()  # a manual hot-swap between requests
            if step in scrape_after:
                replay.assert_matches(service.metrics_text())
        history = service.lifecycle.version_summaries()
        assert [v["activated_at_row"] - warmup for v in history] == [
            0, 300, 600, 900, 1200, 1300, 1600, 1900,
        ]
        replay.assert_matches(service.metrics_text())

    def test_drift_follows_a_swap_made_behind_the_engine(
        self, service_split, make_service, drift_replay
    ):
        """A version activated on the lifecycle directly moves the
        gauges as an engine refit does: they equal those of a twin that
        called ``refit()`` at the same row, before and after the next
        tile completes."""
        dataset, warmup = service_split
        behind, twin = make_service(), make_service()
        replay = DriftReplay(
            behind, dataset.link_traffic[:warmup], drift_replay
        )

        def gauges(service):
            text = service.metrics_text()
            replay.assert_matches(text)
            return (
                exposed(text, "repro_tracker_threshold"),
                exposed(text, "repro_tracker_drift_radians"),
            )

        stream = long_stream(dataset, warmup, 1900)
        for part in (stream[:900], stream[900:]):
            for service in (behind, twin):
                service.ingest_block(part)
            replay.accept(part)
            before = gauges(behind)
            assert before == gauges(twin)
            behind.lifecycle.refit()
            twin.refit()
            assert gauges(behind) == gauges(twin) != before

    def test_ingest_runs_no_eigensolve_until_the_scrape(
        self, service_split, make_service, monkeypatch
    ):
        """Repeatable counts, independent of host speed.  From a 200-row
        warmup, 35 one-row ingests and 1,001 rows in 50-row blocks read
        no history rows and run no eigensolve and no SVD.  The history
        then holds a complete tile: the next scrape solves it (one
        ``eigh``) and takes the principal angles (one ``svd``); a second
        scrape runs neither.  A swap adds one ``svd`` and no ``eigh``
        to the next scrape (the candidate is fitted before counting)."""
        dataset, warmup = service_split
        service = make_service()
        service.metrics_text()
        counts = {"eigh": 0, "svd": 0, "read": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "eigh")
        counted(np.linalg, "svd")
        counted(RowStore, "read")
        stream = long_stream(dataset, warmup, 1036)
        for row in stream[:35]:
            service.ingest_row(row)
        for start in range(35, 1036, 50):
            assert service.ingest_block(stream[start : start + 50]).accepted
        assert service.rows_ingested == 1036
        assert service.lifecycle.rows >= DEFAULT_TILE_ROWS
        assert counts == {"eigh": 0, "svd": 0, "read": 0}
        service.metrics_text()
        assert counts == {"eigh": 1, "svd": 1, "read": 0}
        service.metrics_text()
        assert counts == {"eigh": 1, "svd": 1, "read": 0}
        monkeypatch.undo()
        detector, trained = service.lifecycle.fit_candidate()
        counted(np.linalg, "eigh")
        counted(np.linalg, "svd")
        service.lifecycle.activate(detector, trained)
        service.metrics_text()
        assert counts == {"eigh": 1, "svd": 2, "read": 0}

    def test_synchronous_swaps_solve_each_tile_once(
        self, service_split, make_service, drift_replay, monkeypatch
    ):
        """1,100 one-row ingests at ``refit_interval=144`` swap at every
        144th row.  The history's first tile completes at stream row
        824; the swap at 864 solves it, inside the refit's gauge
        refresh, and neither the swap at 1008 nor the scrape solves it
        again — and the gauges still equal the replay."""
        dataset, warmup = service_split
        service = make_service(
            config=ServiceConfig(refit_interval=144, synchronous_refit=True)
        )
        replay = DriftReplay(
            service, dataset.link_traffic[:warmup], drift_replay
        )
        solved = []
        real = engine.covariance_spectrum

        def counted(covariance):
            solved.append(service.rows_ingested)
            return real(covariance)

        monkeypatch.setattr(engine, "covariance_spectrum", counted)
        for row in long_stream(dataset, warmup, 1100):
            service.ingest_row(row)
            replay.accept(row)
        history = service.lifecycle.version_summaries()
        assert [v["activated_at_row"] - warmup for v in history] == [
            144 * k for k in range(8)
        ]
        assert solved == [864]
        replay.assert_matches(service.metrics_text())
        assert solved == [864]
