"""Batched ingestion: every typed reject reason through the block path.

``DetectionService.ingest_block`` promises the *per-row reject contract,
vectorized*: same reason, same message, same rejected-row index, and a
reject never advances the stream.  This module drives each of the
service's typed error reasons through the block path and pins those
fields against a literal per-row replay:

* the six row-level reasons (``bad_payload``, ``wrong_width``,
  ``non_finite``, ``out_of_range``, ``duplicate_bin``,
  ``out_of_order_bin``) are asserted field-by-field, literal message
  included, against an ``ingest_row`` replay on a twin service — for
  rectangular blocks and for blocks that must be read row by row (a
  short row, a non-numeric bin);
* the lifecycle reasons (``refit_failed``, ``checkpoint_failed``) are
  triggered *mid-block* and must account and propagate exactly as the
  per-row path does;
* the transport reasons reachable from an ingest body
  (``malformed_json``, ``too_many_rows``, ``body_too_large``,
  ``bad_request`` and the bins-mismatch ``bad_payload``) are driven
  through the HTTP multi-row route, which now feeds ``ingest_block``.
  ``read_timeout`` and ``client_disconnect`` happen before a body ever
  reaches the engine, so the block conversion cannot change them; the
  fault suite owns those.
"""

import socket

import numpy as np
import pytest

from repro.exceptions import IngestError, ServiceError
from repro.service import ServiceConfig

#: Each case: (reason, index of the first bad row, its exact message).
#: The blocks of ``bad_payload``, ``ragged_width``, ``non_numeric_bin``
#: and ``values_before_bin`` cannot form one array with numeric bins, so
#: they are read row by row; the one-row replay of the short row is a
#: rectangular ``(1, 48)`` block.  A row whose values and bin are both
#: bad is rejected for its values.
REJECT_CASES = {
    "bad_payload": (
        "bad_payload",
        3,
        "row is not numeric: could not convert string to float: "
        "'not a row'",
    ),
    "wrong_width": ("wrong_width", 0, "row has 48 links, expected 49"),
    "non_finite": (
        "non_finite",
        3,
        "row contains NaN or infinite link counts",
    ),
    "out_of_range": (
        "out_of_range",
        3,
        "row contains a link count of magnitude above 9007199254740992",
    ),
    "duplicate_bin": (
        "duplicate_bin",
        3,
        "bin 2 was already ingested (next is 3)",
    ),
    "out_of_order_bin": (
        "out_of_order_bin",
        3,
        "bin 9 arrived out of order (next is 3)",
    ),
    "ragged_width": ("wrong_width", 3, "row has 48 links, expected 49"),
    "non_numeric_bin": ("bad_payload", 3, "bin '3' is not a number"),
    "values_before_bin": (
        "non_finite",
        3,
        "row contains NaN or infinite link counts",
    ),
}


def replay_rows(service, rows, bins=None):
    """The row-by-row reference: ingest until the first rejection."""
    outcomes = []
    for index, row in enumerate(rows):
        bin_id = None if bins is None else bins[index]
        try:
            outcomes.append(service.ingest_row(row, bin_id=bin_id))
        except IngestError as err:
            return outcomes, err, index
    return outcomes, None, None


def build_block(dataset, warmup, case):
    """A six-row block whose first bad row is the ``case`` reject."""
    stream = dataset.link_traffic[warmup:]
    rows = [stream[i] for i in range(6)]
    bins = None
    if case == "bad_payload":
        rows[3] = "not a row"
    elif case == "wrong_width":
        rows = [row[:-1] for row in rows]  # rectangular, narrow
    elif case == "non_finite":
        rows[3] = stream[3].copy()
        rows[3][0] = np.nan
    elif case == "out_of_range":
        rows[3] = stream[3].copy()
        rows[3][0] = 1e300
    elif case == "duplicate_bin":
        bins = [0, 1, 2, 2, 4, 5]
    elif case == "out_of_order_bin":
        bins = [0, 1, 2, 9, 4, 5]
    elif case == "ragged_width":
        rows[3] = stream[3][:-1]
    elif case == "non_numeric_bin":
        bins = [0, 1, 2, "3", 4, 5]
    elif case == "values_before_bin":
        rows[3] = stream[3].copy()
        rows[3][0] = np.nan
        bins = [0, 1, 2, "3", 4, 5]
    else:  # pragma: no cover - parametrization guards this
        raise AssertionError(case)
    return rows, bins


class TestRowRejectParity:
    @pytest.mark.parametrize("case", REJECT_CASES)
    def test_reason_index_position_and_message_match_per_row(
        self, service_split, make_service, case
    ):
        dataset, warmup = service_split
        reason, bad_index, message = REJECT_CASES[case]
        block_service = make_service(routing=False)
        row_service = make_service(routing=False)
        rows, bins = build_block(dataset, warmup, case)

        result = block_service.ingest_block(rows, bins=bins)
        expected, err, err_index = replay_rows(row_service, rows, bins)

        assert err is not None and result.rejected is not None
        assert result.rejected.reason == reason == err.reason
        assert str(result.rejected) == message == str(err)
        assert result.rejected_index == err_index == bad_index
        assert result.accepted == len(expected) == bad_index
        assert [o.spe for o in result.outcomes] == [o.spe for o in expected]
        assert [o.bin for o in result.outcomes] == [o.bin for o in expected]
        assert block_service.rows_ingested == row_service.rows_ingested
        for service in (block_service, row_service):
            errors = service.metrics["repro_ingest_errors_total"]
            assert errors.value(reason) == 1
            tail = [
                e
                for e in service.events.tail()
                if e["kind"] == "ingest_error"
            ]
            assert len(tail) == 1 and tail[0]["reason"] == reason
            assert tail[0]["detail"] == message

    @pytest.mark.parametrize("case", REJECT_CASES)
    def test_reject_never_advances_the_stream(
        self, service_split, make_service, case
    ):
        """The next good row lands exactly where the reject happened."""
        dataset, warmup = service_split
        service = make_service(routing=False)
        rows, bins = build_block(dataset, warmup, case)
        result = service.ingest_block(rows, bins=bins)
        follow = service.ingest_row(
            dataset.link_traffic[warmup + 10], bin_id=result.accepted
        )
        assert follow.bin == result.accepted


class TestLifecycleReasonsMidBlock:
    def test_refit_failed_mid_block_matches_per_row(
        self, service_split, make_service
    ):
        """A synchronous refit blowing up inside a block must surface
        exactly like the per-row path: same raised type, same stream
        position (the sub-run before the boundary stays ingested), same
        ``refit_failed`` accounting."""
        dataset, warmup = service_split
        config = ServiceConfig(refit_interval=5, synchronous_refit=True)
        boom = {"armed": False}

        def hook():
            if boom["armed"]:
                raise RuntimeError("injected refit failure")

        block_service = make_service(
            routing=False, config=config, refit_hook=hook
        )
        row_service = make_service(
            routing=False, config=config, refit_hook=hook
        )
        boom["armed"] = True
        stream = dataset.link_traffic[warmup:]

        with pytest.raises(ServiceError, match="refit failed"):
            block_service.ingest_block(stream[:8])
        with pytest.raises(ServiceError, match="refit failed"):
            for row in stream[:8]:
                row_service.ingest_row(row)

        assert block_service.rows_ingested == row_service.rows_ingested == 5
        for service in (block_service, row_service):
            errors = service.metrics["repro_ingest_errors_total"]
            assert errors.value("refit_failed") == 1
            assert (
                service.metrics["repro_refit_failures_total"].value() == 1
            )
            assert service.lifecycle.current.version == 1

    def test_checkpoint_failed_mid_block_is_fail_soft(
        self, tmp_path, service_split, make_service
    ):
        """An auto-checkpoint crossing inside a block fails soft: the
        block is fully accepted, the failure is counted once — exactly
        as many times as the per-row path counts it."""
        dataset, warmup = service_split
        target = tmp_path / "ckpt-target"
        target.mkdir()  # a directory: the atomic rename must fail
        config = ServiceConfig(
            checkpoint_path=str(target), checkpoint_interval=4
        )
        block_service = make_service(routing=False, config=config)
        row_service = make_service(routing=False, config=config)
        stream = dataset.link_traffic[warmup:]

        result = block_service.ingest_block(stream[:6])
        assert result.rejected is None and result.accepted == 6
        for row in stream[:6]:
            row_service.ingest_row(row)

        for service in (block_service, row_service):
            errors = service.metrics["repro_ingest_errors_total"]
            assert errors.value("checkpoint_failed") == 1
            assert service.rows_ingested == 6
            assert service.health()["status"] == "ok"


class TestTransportReasonsOnBlockRoute:
    def test_body_level_rejects_are_counted_and_stream_holds(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        service = make_service(
            routing=False, config=ServiceConfig(max_rows_per_request=8)
        )
        server = run_server(service)
        stream = dataset.link_traffic[warmup:]
        errors = service.metrics["repro_ingest_errors_total"]

        status, body = server.post_json("/ingest", b"{not json")
        assert status == 400 and body["reason"] == "malformed_json"
        assert errors.value("malformed_json") == 1

        rows = [stream[i].tolist() for i in range(9)]
        status, body = server.post_json("/ingest", {"rows": rows})
        assert status == 400 and body["reason"] == "too_many_rows"
        assert body["accepted"] == 0
        assert errors.value("too_many_rows") == 1

        status, body = server.post_json(
            "/ingest", {"rows": rows[:2], "bins": [0]}
        )
        assert status == 400 and body["reason"] == "bad_payload"
        assert errors.value("bad_payload") == 1

        assert service.rows_ingested == 0

    def test_body_too_large_rejected_before_the_engine(
        self, service_split, make_service, run_server
    ):
        dataset, warmup = service_split
        service = make_service(
            routing=False, config=ServiceConfig(max_body_bytes=1024)
        )
        server = run_server(service)
        payload = {
            "rows": [dataset.link_traffic[warmup].tolist()] * 40
        }
        status, body = server.post_json("/ingest", payload)
        assert status == 413 and body["reason"] == "body_too_large"
        errors = service.metrics["repro_ingest_errors_total"]
        assert errors.value("body_too_large") == 1
        assert service.rows_ingested == 0

    def test_bad_request_line_is_counted(
        self, service_split, make_service, run_server
    ):
        service = make_service(routing=False)
        server = run_server(service)
        raw = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        raw.sendall(b"GARBAGE LINE\r\n\r\n")
        raw.recv(4096)
        raw.close()
        errors = service.metrics["repro_ingest_errors_total"]
        assert errors.value("bad_request") == 1
        assert service.rows_ingested == 0
