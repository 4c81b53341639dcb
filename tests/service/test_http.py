"""The asyncio HTTP front end over a real loopback socket."""

import json
import socket
import threading
import time

import numpy as np

from repro.pipeline import DetectionPipeline
from repro.service import ServiceConfig
from tests.service.conftest import refit_version


class TestIngestRoute:
    def test_batch_ingest_reports_alarms_and_results(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        stream = dataset.link_traffic[warmup:]
        status, body = server.post_json("/ingest", {"rows": stream.tolist()})
        assert status == 200
        assert body["accepted"] == stream.shape[0]
        batch = DetectionPipeline(svd_method="gram").fit(
            dataset.link_traffic[:warmup], routing=dataset.routing
        ).detect(stream)
        assert body["alarm_bins"] == [int(b) for b in batch.anomalous_bins]
        assert body["alarms"] == batch.num_alarms
        spe = [result["spe"] for result in body["results"]]
        # JSON round-trips doubles exactly (repr shortest round-trip).
        assert spe == list(batch.spe)

    def test_single_row_form_with_bin(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        row = dataset.link_traffic[warmup].tolist()
        status, body = server.post_json("/ingest", {"row": row, "bin": 0})
        assert status == 200 and body["accepted"] == 1
        assert body["results"][0]["bin"] == 0

    def test_rejection_reports_reason_and_accepted_prefix(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        good = dataset.link_traffic[warmup].tolist()
        status, body = server.post_json(
            "/ingest", {"rows": [good, [1.0, 2.0], good]}
        )
        assert status == 400
        assert body["reason"] == "wrong_width"
        assert body["accepted"] == 1
        status, health = server.get_json("/health")
        assert health["rows_ingested"] == 1


class TestBodyShapeRejects:
    def test_each_reject_is_pinned(
        self, service_split, make_service, run_server
    ):
        """The four body-shape rejects of ``POST /ingest``: status, the
        exact body bytes, one ``repro_ingest_errors_total{reason}``
        count and the ``ingest_error`` event detail, no row ingested."""
        dataset, warmup = service_split
        service = make_service(config=ServiceConfig(max_rows_per_request=2))
        server = run_server(service)
        row = dataset.link_traffic[warmup].tolist()
        cases = [
            (
                {"rowz": [row]},
                b'{"accepted": 0, "error": "payload must carry \'row\' '
                b'or \'rows\'", "reason": "bad_payload"}',
                "no 'row' or 'rows' key",
            ),
            (
                {"rows": "nope"},
                b'{"accepted": 0, "error": "\'rows\' must be a list", '
                b'"reason": "bad_payload"}',
                "'rows' is not a list",
            ),
            (
                {"rows": [row, row, row]},
                b'{"accepted": 0, "error": "3 rows exceed the per-request '
                b'cap of 2", "reason": "too_many_rows"}',
                "3 rows in one request",
            ),
            (
                {"rows": [row], "bins": [0, 1]},
                b'{"accepted": 0, "error": "\'bins\' must be a list '
                b'matching \'rows\'", "reason": "bad_payload"}',
                "'bins' does not match 'rows'",
            ),
        ]
        errors = service.metrics["repro_ingest_errors_total"]
        raw = socket.create_connection((server.host, server.port), timeout=10)
        with raw, raw.makefile("rb") as stream:
            for payload, expected, detail in cases:
                reason = json.loads(expected)["reason"]
                before = errors.value(reason)
                body = json.dumps(payload).encode("utf-8")
                raw.sendall(
                    b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body)
                    + body
                )
                assert read_response(stream) == (400, expected)
                assert errors.value(reason) == before + 1
                event = service.events.tail()[-1]
                assert (event["kind"], event["reason"], event["detail"]) == (
                    "ingest_error",
                    reason,
                    detail,
                )
        assert errors.total() == len(cases)
        assert service.rows_ingested == 0


def read_response(stream) -> tuple[int, bytes]:
    """One HTTP/1.1 response off a socket file: (status, raw body)."""
    status = int(stream.readline().split()[1])
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, stream.read(length)


def ingest_request(row, line_end: bytes = b"\r\n") -> bytes:
    body = json.dumps({"row": row.tolist()}).encode("utf-8")
    head = [b"POST /ingest HTTP/1.1", b"Content-Length: %d" % len(body)]
    return line_end.join(head) + line_end * 2 + body


class TestResponseBytes:
    def test_ingest_body_is_sorted_json_of_the_per_row_outcomes(
        self, service_split, make_service, run_server
    ):
        """On the wire, across a hot-swap and an identified alarm, the
        body is ``json.dumps(..., sort_keys=True)`` of the per-row
        payload a twin engine's ``BlockResult.outcomes`` give."""
        dataset, warmup = service_split
        config = ServiceConfig(refit_interval=12, synchronous_refit=True)
        server = run_server(make_service(config=config))
        twin = make_service(config=config)
        flow = dataset.routing.od_index("lon", "zur")
        block = dataset.link_traffic[warmup : warmup + 30].copy()
        block[20] += 5.0e8 * dataset.routing.column(flow)
        body = json.dumps({"rows": block.tolist()}).encode("utf-8")
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        with raw, raw.makefile("rb") as stream:
            raw.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)
                + body
            )
            status, served = read_response(stream)
        result = twin.ingest_block(block)
        assert len({outcome.threshold for outcome in result.outcomes}) == 3
        alarms = [outcome for outcome in result.outcomes if outcome.flag]
        assert 20 in [outcome.bin for outcome in alarms]
        legacy = {
            "accepted": result.accepted,
            "alarms": len(alarms),
            "alarm_bins": [outcome.bin for outcome in alarms],
            "results": [outcome.to_json() for outcome in result.outcomes],
        }
        assert status == 200
        assert served == json.dumps(legacy, sort_keys=True).encode("utf-8")


class TestUnexplainedAlarm:
    def test_connection_survives_an_alarm_no_flow_can_explain(
        self, blind_routing, run_server
    ):
        """The alarm is answered like any other, and the same keep-alive
        connection serves the next request."""
        from repro.service import DetectionService

        warmup, routing, block = blind_routing
        server = run_server(
            DetectionService.from_warmup(
                warmup, routing=routing, config=ServiceConfig(normal_rank=2)
            )
        )
        body = json.dumps({"rows": block.tolist()}).encode("utf-8")
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        with raw, raw.makefile("rb") as stream:
            raw.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)
                + body
            )
            status, served = read_response(stream)
            assert status == 200
            payload = json.loads(served)
            assert payload["accepted"] == 3
            assert payload["alarm_bins"] == [1]
            assert "flow_index" not in payload["results"][1]
            raw.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, served = read_response(stream)
        assert status == 200
        assert json.loads(served)["rows_ingested"] == 3


class TestFraming:
    def test_pipelined_requests_are_answered_in_order(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        rows = dataset.link_traffic[warmup : warmup + 2]
        health = b"GET /health HTTP/1.1\r\n\r\n"
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        with raw, raw.makefile("rb") as stream:
            raw.sendall(
                ingest_request(rows[0])
                + health
                + ingest_request(rows[1])
                + health
            )
            answers = [read_response(stream) for _ in range(4)]
        assert [status for status, _ in answers] == [200] * 4
        bodies = [json.loads(body) for _, body in answers]
        assert bodies[0]["results"][0]["bin"] == 0
        assert bodies[1]["rows_ingested"] == 1
        assert bodies[2]["results"][0]["bin"] == 1
        assert bodies[3]["rows_ingested"] == 2

    def test_bare_newline_line_endings_parse(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        with raw, raw.makefile("rb") as stream:
            raw.sendall(
                ingest_request(dataset.link_traffic[warmup], b"\n")
                + b"GET /health HTTP/1.1\n\n"
            )
            ingest_status, ingest_body = read_response(stream)
            health_status, health_body = read_response(stream)
        assert ingest_status == 200
        assert json.loads(ingest_body)["accepted"] == 1
        assert health_status == 200
        assert json.loads(health_body)["rows_ingested"] == 1

    def test_a_pipelined_burst_does_not_starve_other_connections(
        self, service_split, make_service, run_server
    ):
        """Buffered reads never suspend, so without a yield after each
        response one connection's pipeline would hold the event loop
        until it drained.  ``/health`` reports how many rows were
        ingested when it was answered."""
        dataset, warmup = service_split
        server = run_server(make_service())
        health = b"GET /health HTTP/1.1\r\n\r\n"
        probe = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        burst = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        with probe, burst, probe.makefile("rb") as probe_stream, (
            burst.makefile("rb")
        ) as burst_stream:
            probe.sendall(health)  # the probe's handler is now waiting
            assert read_response(probe_stream)[0] == 200
            burst.sendall(
                ingest_request(dataset.link_traffic[warmup]) * 60
            )
            probe.sendall(health)
            status, body = read_response(probe_stream)
            answers = [read_response(burst_stream) for _ in range(60)]
        assert status == 200
        assert json.loads(body)["rows_ingested"] < 60
        assert [json.loads(body)["results"][0]["bin"] for _, body in answers] == (
            list(range(60))
        )

    def test_a_client_that_stops_reading_is_paused_not_buffered(
        self, service_split, make_service, run_server
    ):
        """Backpressure: one connection pipelines ingest-then-scrape
        rounds whose responses overflow the socket buffers and the
        transport's write high-water mark, and reads nothing for a
        while.  The server stops serving it part-way (no more rows are
        ingested) and answers another connection meanwhile; the first
        connection then reads every response, in order."""
        dataset, warmup = service_split
        server = run_server(make_service())
        # About 7.5 MB of responses: twice what Linux lets the server's
        # socket buffer grow to (4 MiB, tcp_wmem) plus the high-water mark.
        rounds = 2000
        scrape = b"GET /metrics HTTP/1.1\r\n\r\n"
        pipeline = (ingest_request(dataset.link_traffic[warmup]) + scrape) * rounds
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(10)
        slow.connect((server.host, server.port))
        probe = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        # Sent from a thread: once the server stops reading, the rest of
        # the pipeline waits in the socket buffers until the client reads.
        sender = threading.Thread(target=slow.sendall, args=(pipeline,))
        with slow, probe, slow.makefile("rb") as slow_stream, (
            probe.makefile("rb")
        ) as probe_stream:
            sender.start()
            time.sleep(0.5)
            probe.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, body = read_response(probe_stream)
            answers = [read_response(slow_stream) for _ in range(2 * rounds)]
            sender.join(timeout=10)
        assert not sender.is_alive()
        assert status == 200
        assert json.loads(body)["rows_ingested"] < rounds
        assert [status for status, _ in answers] == [200] * (2 * rounds)
        bins = [json.loads(body)["results"][0]["bin"] for _, body in answers[::2]]
        assert bins == list(range(rounds))
        for ingested, (_, text) in enumerate(answers[1::2], start=1):
            lines = text.decode("utf-8").splitlines()
            assert f"repro_rows_ingested_total {ingested}" in lines


class TestObservabilityRoutes:
    def test_health_version_and_metrics(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        server.post_json(
            "/ingest", {"rows": dataset.link_traffic[warmup : warmup + 5].tolist()}
        )
        status, health = server.get_json("/health")
        assert status == 200 and health["status"] == "ok"
        assert health["rows_ingested"] == 5

        status, version = server.get_json("/version")
        assert status == 200
        assert version["current"]["version"] == 1

        status, text = server.get("/metrics")
        assert status == 200
        assert "repro_rows_ingested_total 5" in text.splitlines()
        assert "# TYPE repro_ingest_latency_seconds histogram" in text

    def test_unknown_route_and_wrong_method(self, make_service, run_server):
        server = run_server(make_service())
        status, body = server.get_json("/nope")
        assert status == 404
        status, body = server.post_json("/metrics", {})
        assert status == 405
        # The daemon still serves after both.
        status, _ = server.get_json("/health")
        assert status == 200

    def test_keep_alive_reuses_one_connection(self, make_service, run_server):
        import http.client

        server = run_server(make_service())
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            for _ in range(3):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestRefitRoute:
    def test_synchronous_refit_returns_the_new_version(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        server = run_server(make_service())
        server.post_json(
            "/ingest",
            {"rows": dataset.link_traffic[warmup : warmup + 10].tolist()},
        )
        status, body = server.post_json("/refit", {"wait": True})
        assert status == 200
        assert body["refit"] == "done"
        assert body["version"] == 2
        assert body["trained_rows"] == warmup + 10

    def test_background_refit_returns_202(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        service = make_service()
        server = run_server(service)
        server.post_json(
            "/ingest",
            {"rows": dataset.link_traffic[warmup : warmup + 5].tolist()},
        )
        status, body = server.post_json("/refit", {"wait": False})
        assert status == 202
        assert body["refit"] in ("started", "already running")
        service.wait_for_refit(timeout=30)
        status, version = server.get_json("/version")
        assert version["current"]["version"] == 2


class TestShutdown:
    def test_shutdown_stops_the_daemon_cleanly(
        self, make_service, run_server
    ):
        server = run_server(make_service())
        status, body = server.post_json("/shutdown", {})
        assert status == 200
        assert body["status"] == "shutting down"
        server._thread.join(timeout=10)
        assert not server.alive
        stop_events = [
            e
            for e in server.service.events.tail()
            if e["kind"] == "service_stop"
        ]
        assert len(stop_events) == 1


class TestHotSwapParityOverHTTP:
    def test_alarms_match_batch_refits_at_reported_boundaries(
        self, service_split, make_service, run_server
    ):
        """End-to-end: rows over the wire, synchronous auto-refits, and
        the alarm stream still matches offline refits bit for bit."""
        dataset, warmup = service_split
        config = ServiceConfig(refit_interval=30, synchronous_refit=True)
        server = run_server(make_service(config=config))
        stream = dataset.link_traffic[warmup:]
        # Chunked posting across the swap boundaries.
        collected = []
        for start in range(0, stream.shape[0], 17):
            status, body = server.post_json(
                "/ingest",
                {"rows": stream[start : start + 17].tolist()},
            )
            assert status == 200
            collected.extend(body["results"])
        assert [r["bin"] for r in collected] == list(range(stream.shape[0]))

        service = server.service
        reference_spe = np.empty(stream.shape[0])
        reference_flags = np.empty(stream.shape[0], dtype=bool)
        for summary in service.lifecycle.version_summaries():
            detector, lo, hi = refit_version(
                summary, dataset.link_traffic, warmup
            )
            if hi <= lo:
                continue
            result = detector.detect(stream[lo:hi])
            reference_spe[lo:hi] = result.spe
            reference_flags[lo:hi] = result.flags
        assert [r["spe"] for r in collected] == list(reference_spe)
        assert [r["bin"] for r in collected if r["flag"]] == [
            int(b) for b in np.nonzero(reference_flags)[0]
        ]
