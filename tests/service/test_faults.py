"""Fault injection: every abuse leaves the daemon serving.

The satellite contract: malformed JSON, wrong-width rows, link counts
in overflow range, duplicate, out-of-order and non-numeric bin ids, a
refit that
explodes mid-hot-swap, an abrupt client disconnect, a stalled request,
malformed framing, and an oversized body each end in exactly one
incremented error counter, a green ``/health``, and a daemon that still
ingests — never a crash.
"""

import json
import select
import socket

import pytest

from repro.service import ServiceConfig


def error_count(server, reason: str) -> int:
    return int(
        server.service.metrics["repro_ingest_errors_total"].value(reason)
    )


def assert_still_serving(server, service_split):
    """The liveness invariant asserted after every injected fault."""
    dataset, warmup = service_split
    status, health = server.get_json("/health")
    assert status == 200
    assert health["status"] == "ok"
    next_bin = server.service.rows_ingested
    status, body = server.post_json(
        "/ingest", {"row": dataset.link_traffic[warmup].tolist()}
    )
    assert status == 200
    assert body["results"][0]["bin"] == next_bin


@pytest.fixture
def server(make_service, run_server):
    return run_server(make_service())


def read_until_closed(raw: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection."""
    chunks = []
    while chunk := raw.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


class TestPayloadFaults:
    def test_malformed_json(self, server, service_split):
        status, body = server.post_json("/ingest", b"{not json!")
        assert status == 400
        assert body["reason"] == "malformed_json"
        assert error_count(server, "malformed_json") == 1
        assert_still_serving(server, service_split)

    def test_missing_row_keys(self, server, service_split):
        status, body = server.post_json("/ingest", {"wrong": []})
        assert status == 400
        assert body["reason"] == "bad_payload"
        assert error_count(server, "bad_payload") == 1
        assert_still_serving(server, service_split)

    def test_wrong_width_rows(self, server, service_split):
        status, body = server.post_json("/ingest", {"rows": [[1.0, 2.0]]})
        assert status == 400
        assert body["reason"] == "wrong_width"
        assert error_count(server, "wrong_width") == 1
        assert_still_serving(server, service_split)

    def test_non_finite_rows(self, server, service_split):
        dataset, warmup = service_split
        row = dataset.link_traffic[warmup].tolist()
        row[0] = float("nan")
        # json.dumps would emit invalid JSON for NaN; send it raw.
        body_bytes = (
            '{"rows": [[' + ", ".join(map(str, row)) + "]]}"
        ).replace("nan", "NaN").encode()
        status, body = server.post_json("/ingest", body_bytes)
        assert status == 400
        assert body["reason"] == "non_finite"
        assert_still_serving(server, service_split)

    def test_duplicate_and_out_of_order_bins(self, server, service_split):
        dataset, warmup = service_split
        row = dataset.link_traffic[warmup].tolist()
        status, _ = server.post_json("/ingest", {"row": row, "bin": 0})
        assert status == 200
        status, body = server.post_json("/ingest", {"row": row, "bin": 0})
        assert status == 400 and body["reason"] == "duplicate_bin"
        status, body = server.post_json("/ingest", {"row": row, "bin": 7})
        assert status == 400 and body["reason"] == "out_of_order_bin"
        assert error_count(server, "duplicate_bin") == 1
        assert error_count(server, "out_of_order_bin") == 1
        assert_still_serving(server, service_split)

    @pytest.mark.parametrize(
        "bin_value",
        ["x", [0], {}, None, float("nan")],
        ids=["string", "list", "object", "null", "nan"],
    )
    def test_bin_that_is_not_a_number(
        self, server, service_split, bin_value
    ):
        """A bin must be a real, non-NaN number: a string, list or
        object is a counted 400, not an exception out of the
        connection handler, and ``null`` or ``NaN`` must not skip the
        sequence check."""
        dataset, warmup = service_split
        row = dataset.link_traffic[warmup].tolist()
        status, body = server.post_json(
            "/ingest", {"row": row, "bin": bin_value}
        )
        assert status == 400
        assert body["reason"] == "bad_payload"
        assert body["error"] == f"bin {bin_value!r} is not a number"
        assert body["accepted"] == 0
        assert error_count(server, "bad_payload") == 1
        errors = server.service.metrics["repro_ingest_errors_total"]
        assert errors.total() == 1
        assert server.service.rows_ingested == 0
        assert_still_serving(server, service_split)

    @pytest.mark.parametrize(
        "config",
        [
            ServiceConfig(),
            ServiceConfig(refit_interval=4, synchronous_refit=True),
        ],
        ids=["manual_refit", "synchronous_refit"],
    )
    def test_overflow_range_rows_are_rejected_before_folding(
        self, service_split, make_service, run_server, config
    ):
        """A finite 1e300 used to be accepted and folded, and the
        overflowed statistics broke later scrapes, refits and (with
        synchronous refits) ingests.  The rows after the reject cross
        a drift-tracker refresh, so the scrape runs an eigensolve."""
        dataset, warmup = service_split
        server = run_server(make_service(config=config))
        stream = dataset.link_traffic[warmup:]
        row = stream[0].tolist()
        row[5] = 1e300
        status, body = server.post_json(
            "/ingest", {"rows": [stream[0].tolist(), row]}
        )
        assert status == 400
        assert body["reason"] == "out_of_range"
        assert body["accepted"] == 1
        assert error_count(server, "out_of_range") == 1
        status, body = server.post_json(
            "/ingest", {"rows": stream[1:41].tolist()}
        )
        assert status == 200 and body["accepted"] == 40
        status, text = server.get("/metrics")
        assert status == 200
        assert "repro_rows_ingested_total 41" in text.splitlines()
        status, body = server.post_json("/refit", {"wait": True})
        assert status == 200 and body["refit"] == "done"
        assert_still_serving(server, service_split)

    def test_too_many_rows(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        config = ServiceConfig(max_rows_per_request=2)
        server = run_server(make_service(config=config))
        rows = dataset.link_traffic[warmup : warmup + 3].tolist()
        status, body = server.post_json("/ingest", {"rows": rows})
        assert status == 400
        assert body["reason"] == "too_many_rows"
        assert body["accepted"] == 0
        assert_still_serving(server, service_split)

    def test_checkpoint_body_naming_a_path_writes_nothing(
        self, service_split, make_service, run_server, tmp_path
    ):
        """``POST /checkpoint`` writes only the configured path: a body
        naming another file is a counted 400, and that file keeps its
        bytes."""
        configured = tmp_path / "service.ckpt"
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not a checkpoint\n")
        server = run_server(
            make_service(config=ServiceConfig(checkpoint_path=str(configured)))
        )
        status, body = server.post_json("/checkpoint", {"path": str(victim)})
        assert status == 400
        assert body["reason"] == "bad_payload"
        assert error_count(server, "bad_payload") == 1
        assert victim.read_bytes() == b"not a checkpoint\n"
        assert not configured.exists()
        status, body = server.post_json("/checkpoint", {})
        assert status == 200
        assert body["path"] == str(configured) and configured.exists()
        assert_still_serving(server, service_split)

    def test_oversized_body(self, service_split, make_service, run_server):
        # The cap must still admit one real row for the liveness probe.
        config = ServiceConfig(max_body_bytes=4096)
        server = run_server(make_service(config=config))
        status, body = server.post_json(
            "/ingest", {"rows": [[0.0] * 2000]}
        )
        assert status == 413
        assert body["reason"] == "body_too_large"
        assert error_count(server, "body_too_large") == 1
        assert_still_serving(server, service_split)


class TestTransportFaults:
    def test_abrupt_client_disconnect_mid_request(
        self, server, service_split
    ):
        """A client that dies after half a request must not take the
        daemon with it."""
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
            b'{"rows": [['
        )
        raw.close()  # vanish mid-body
        deadline_probe(server, "client_disconnect")
        assert error_count(server, "client_disconnect") == 1
        assert_still_serving(server, service_split)

    def test_stalled_request_times_out(
        self, service_split, make_service, run_server
    ):
        config = ServiceConfig(read_timeout=0.2)
        server = run_server(make_service(config=config))
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
        # ...and never send the body.
        response = raw.recv(4096)
        assert b"408" in response.split(b"\r\n", 1)[0]
        raw.close()
        assert error_count(server, "read_timeout") == 1
        assert_still_serving(server, service_split)

    @pytest.mark.parametrize(
        "first_request",
        [b"GET /health HTTP/1.1\r\n\r\n", b""],
        ids=["after_a_request", "before_any_request"],
    )
    def test_idle_keep_alive_connection_closes_quietly(
        self, service_split, make_service, run_server, first_request
    ):
        """A connection idle between requests for ``read_timeout`` is
        closed without a response and counts no fault; only a request
        that stalls part-way is a 408."""
        config = ServiceConfig(read_timeout=0.2)
        server = run_server(make_service(config=config))
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(first_request)
        response = read_until_closed(raw)  # idles past read_timeout
        raw.close()
        if first_request:
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")
            assert response.count(b"HTTP/1.1") == 1
        else:
            assert response == b""
        errors = server.service.metrics["repro_ingest_errors_total"]
        assert errors.total() == 0
        assert_still_serving(server, service_split)

    def test_garbage_request_line(self, server, service_split):
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(b"THIS IS NOT HTTP\r\n\r\n")
        response = raw.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        raw.close()
        assert error_count(server, "bad_request") == 1
        assert_still_serving(server, service_split)


class TestFramingFaults:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # Past the StreamReader's 64 KiB line limit, not just ours.
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=[
            "non_numeric_length",
            "negative_length",
            "request_line_over_reader_limit",
            "header_line_over_reader_limit",
        ],
    )
    def test_malformed_framing_is_one_counted_400(
        self, server, service_split, request_bytes
    ):
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(request_bytes)
        response = read_until_closed(raw)
        raw.close()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body)["reason"] == "bad_request"
        errors = server.service.metrics["repro_ingest_errors_total"]
        assert errors.value("bad_request") == 1
        assert errors.total() == 1
        assert_still_serving(server, service_split)

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /ingest HTTP/1.1\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n",
        ],
        ids=["after_request_line", "between_header_lines"],
    )
    def test_stall_inside_the_head_times_out(
        self, service_split, make_service, run_server, head
    ):
        """Every read has its own deadline, not just the body's."""
        config = ServiceConfig(read_timeout=0.2)
        server = run_server(make_service(config=config))
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(head)
        response = read_until_closed(raw)
        raw.close()
        assert response.split(b"\r\n", 1)[0] == (
            b"HTTP/1.1 408 Request Timeout"
        )
        errors = server.service.metrics["repro_ingest_errors_total"]
        assert errors.value("read_timeout") == 1
        assert errors.total() == 1
        assert_still_serving(server, service_split)


    def test_a_trickled_header_line_times_out(
        self, service_split, make_service, run_server
    ):
        """The deadline is per piece, not per byte: a header line sent
        one byte every 0.1 s gets its 408 at ``read_timeout=0.2``, long
        before the line could end."""
        config = ServiceConfig(read_timeout=0.2)
        server = run_server(make_service(config=config))
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(b"GET /health HTTP/1.1\r\n")
        # Half a period first, so no byte is due when the deadline is.
        wait = 0.05
        for byte in b"X-Slow: " + b"a" * 22:
            if select.select([raw], [], [], wait)[0]:
                break  # the server answered
            raw.sendall(bytes([byte]))
            wait = 0.1
        else:
            pytest.fail("the whole header line went out unanswered")
        response = read_until_closed(raw)
        raw.close()
        assert response.split(b"\r\n", 1)[0] == (
            b"HTTP/1.1 408 Request Timeout"
        )
        errors = server.service.metrics["repro_ingest_errors_total"]
        assert errors.value("read_timeout") == 1
        assert errors.total() == 1
        assert_still_serving(server, service_split)


class TestRefitFaults:
    def test_refit_exploding_mid_swap_leaves_old_model_serving(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        boom = {"armed": False}

        def hook():
            if boom["armed"]:
                raise RuntimeError("injected refit failure")

        server = run_server(make_service(refit_hook=hook))
        stream = dataset.link_traffic[warmup:]
        status, before = server.post_json(
            "/ingest", {"rows": stream[:10].tolist()}
        )
        assert status == 200

        boom["armed"] = True
        status, body = server.post_json("/refit", {"wait": True})
        assert status == 500
        assert body["reason"] == "refit_failed"
        assert error_count(server, "refit_failed") == 1
        assert (
            server.service.metrics["repro_refit_failures_total"].value() == 1
        )

        # The old model keeps scoring — same version, same threshold.
        status, health = server.get_json("/health")
        assert health["status"] == "ok"
        assert health["model_version"] == 1
        assert health["last_refit_error"] is not None
        status, body = server.post_json(
            "/ingest", {"row": stream[10].tolist()}
        )
        assert status == 200
        assert body["results"][0]["model_version"] == 1
        assert (
            body["results"][0]["threshold"]
            == before["results"][0]["threshold"]
        )

        # Disarm: the next refit needs no restart to succeed.
        boom["armed"] = False
        status, body = server.post_json("/refit", {"wait": True})
        assert status == 200 and body["version"] == 2
        assert_still_serving(server, service_split)

    def test_failing_synchronous_refit_answers_every_row(
        self, service_split, make_service, run_server
    ):
        """An ingest whose synchronous refit fails mid-request answers
        200 with every accepted row, scored by the active version."""
        dataset, warmup = service_split
        boom = {"armed": False}

        def hook():
            if boom["armed"]:
                raise RuntimeError("injected refit failure")

        server = run_server(
            make_service(
                config=ServiceConfig(refit_interval=5, synchronous_refit=True),
                refit_hook=hook,
            )
        )
        boom["armed"] = True
        rows = dataset.link_traffic[warmup : warmup + 12].tolist()
        status, body = server.post_json("/ingest", {"rows": rows})
        assert status == 200
        assert body["accepted"] == 12
        assert [r["bin"] for r in body["results"]] == list(range(12))
        assert {r["model_version"] for r in body["results"]} == {1}
        assert error_count(server, "refit_failed") == 2
        assert_still_serving(server, service_split)


class TestFaultStorm:
    def test_every_fault_in_sequence_never_kills_the_daemon(
        self, service_split, make_service, run_server
    ):
        """The whole menagerie against one daemon instance."""
        dataset, warmup = service_split
        server = run_server(make_service())
        row = dataset.link_traffic[warmup].tolist()
        server.post_json("/ingest", b"][")
        server.post_json("/ingest", {"rows": [[1.0]]})
        server.post_json("/ingest", {"row": row, "bin": 99})
        raw = socket.create_connection((server.host, server.port), timeout=10)
        raw.sendall(b"POST /ingest HTTP/1.1\r\nContent-Length: 9999\r\n\r\nx")
        raw.close()
        deadline_probe(server, "client_disconnect")
        server.post_json("/ingest", {"wrong": 1})
        assert server.alive
        errors = server.service.metrics["repro_ingest_errors_total"]
        for reason in (
            "malformed_json",
            "wrong_width",
            "out_of_order_bin",
            "client_disconnect",
            "bad_payload",
        ):
            assert errors.value(reason) == 1, reason
        assert_still_serving(server, service_split)


def deadline_probe(server, reason: str, attempts: int = 100) -> None:
    """Wait until the server has accounted the (async) transport fault."""
    import time

    for _ in range(attempts):
        if error_count(server, reason) > 0:
            return
        time.sleep(0.05)
