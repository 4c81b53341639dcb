"""Stdlib-asyncio HTTP front end for :class:`DetectionService`.

A deliberately small HTTP/1.1 server on ``loop.create_server`` — the
container ships no web framework, and the service needs exactly seven
routes:

====== =========== ====================================================
Method Path        Behavior
====== =========== ====================================================
POST   /ingest     Score a batch of rows; 400 with a reason token on
                   the first rejected row (earlier rows stay ingested).
GET    /metrics    Prometheus text exposition (format 0.0.4).
GET    /health     Liveness JSON; ``status: ok`` whenever serving.
GET    /version    Active model version + full swap history.
POST   /refit      Refit now (``{"wait": false}`` → background, 202).
POST   /checkpoint Persist the lifecycle atomically to the configured
                   path (a body naming a path is a 400).
POST   /shutdown   Graceful stop after the response is written (a
                   configured checkpoint path makes the stop warm).
====== =========== ====================================================

A SIGTERM takes the same path as ``POST /shutdown`` — the signal
handler sets the shutdown event, ``serve_until_shutdown`` falls through
to ``service.close()``, and ``close()`` writes a final checkpoint when
one is configured, so an orchestrator's ordinary kill restarts warm.

Transport faults never reach the engine as crashes: oversized bodies,
stalled reads, malformed framing, and mid-request disconnects each map
to one reason token on the service's error counter, and the server
survives to serve the next client.

Each connection is one :class:`asyncio.Protocol`.  When bytes arrive,
the same callback parses the next whole request from the connection's
buffer, dispatches it and writes the response; a request is one
synchronous step, with no task wake-up per read.  Each piece of a
request (its line, each header line, the body) must arrive within
``read_timeout`` of the previous piece, kept by one timer per
connection: a request that stalls part-way gets a 408, while a
connection idle between requests is closed quietly and counts nothing.
When another request is already buffered, the connection answers it on
the next event-loop iteration, so a pipelining client cannot hold off
other connections.  While the client does not read its responses, the
connection stops reading too, so its buffers stay bounded.

The 200 body of an ingest is formatted straight from the engine's
:class:`~repro.service.engine.BlockSegment` arrays by
:func:`encode_ingest_response`, byte-identical to ``json.dumps(...,
sort_keys=True)`` of the per-row payload; every other body goes
through ``json.dumps``.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from urllib.parse import unquote

import numpy as np

from repro.exceptions import ServiceError
from repro.service.engine import BlockResult, DetectionService

__all__ = ["ServiceHTTPServer", "serve", "encode_ingest_response"]

_MAX_HEADER_LINES = 100
#: The longest request line and header line, terminator included.
_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINE = 1 << 16
#: A connection with a request queued stops reading once it buffers
#: more than this, until it has answered what it holds.
_READ_AHEAD = 1 << 16

#: The pieces of a request, in the order they arrive.
_REQUEST_LINE, _HEADERS, _BODY = range(3)


class _HTTPError(Exception):
    """An error that maps to a client-facing status + reason token."""

    def __init__(self, status: int, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.status = status
        self.reason = reason
        self.detail = detail


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def encode_ingest_response(result: BlockResult) -> str:
    """The 200 body of an ingest, formatted from the block's segments.

    Byte-identical to ``json.dumps(payload, sort_keys=True)`` of the
    per-row payload ``{"accepted", "alarms", "alarm_bins", "results"}``
    with one ``RowOutcome.to_json()`` dict per accepted row.  Each
    segment's threshold and model version are formatted once, and each
    float with ``float.__repr__`` (what ``json.dumps`` writes for a
    finite float); flagged rows are formatted the same way, from the
    segment's identification arrays.
    """
    results: list[str] = []
    alarm_bins: list[int] = []
    for segment in result.segments:
        version = json.dumps(segment.model_version)
        threshold = json.dumps(segment.threshold)
        row = (
            '{"bin": %d, "flag": false, "model_version": '
            + version
            + ', "spe": %s, "threshold": '
            + threshold
            + "}"
        )
        spe_text = _float_text(segment.spe)
        bins = range(segment.start_bin, segment.start_bin + len(segment.spe))
        texts = map(spe_text, segment.spe.tolist())
        if not segment.num_alarms:
            results.extend(map(row.__mod__, zip(bins, texts)))
            continue
        offsets = np.flatnonzero(segment.flags)
        alarms = iter(_alarm_rows(segment, offsets, version, threshold))
        for bin_id, text, flag in zip(bins, texts, segment.flags.tolist()):
            results.append(next(alarms) if flag else row % (bin_id, text))
        alarm_bins.extend((segment.start_bin + offsets).tolist())
    return '{"accepted": %d, "alarm_bins": [%s], "alarms": %d, "results": [%s]}' % (
        len(results),
        ", ".join(map(str, alarm_bins)),
        len(alarm_bins),
        ", ".join(results),
    )


def _float_text(values: np.ndarray):
    """How ``json.dumps`` spells the floats of ``values``: their repr,
    or ``NaN``/``Infinity`` when some are not finite."""
    return float.__repr__ if np.isfinite(values).all() else json.dumps


def _alarm_rows(
    segment, offsets: np.ndarray, version: str, threshold: str
) -> list[str]:
    """The segment's flagged rows (at ``offsets``), in bin order, as
    sorted-key JSON objects; ``version`` and ``threshold`` are the
    segment's formatted model version and threshold."""
    bins = (segment.start_bin + offsets).tolist()
    spe = segment.spe[offsets]
    spes = map(_float_text(spe), spe.tolist())
    if segment.flow_indices is None:
        row = (
            '{"bin": %d, "flag": true, "model_version": '
            + version
            + ', "spe": %s, "threshold": '
            + threshold
            + "}"
        )
        return list(map(row.__mod__, zip(bins, spes)))
    row = (
        '{"bin": %d, "estimated_bytes": %s, "flag": true, "flow_index": %d, '
        '"magnitude": %s, "model_version": '
        + version
        + ', "od_pair": %s, "spe": %s, "threshold": '
        + threshold
        + "}"
    )
    flows = segment.flow_indices.tolist()
    pairs = {flow: json.dumps(segment.od_pairs[flow]) for flow in set(flows)}
    sizes, magnitudes = segment.estimated_bytes, segment.magnitudes
    return list(
        map(
            row.__mod__,
            zip(
                bins,
                map(_float_text(sizes), sizes.tolist()),
                flows,
                map(_float_text(magnitudes), magnitudes.tolist()),
                map(pairs.__getitem__, flows),
                spes,
            ),
        )
    )


def _response(
    status: int,
    payload: object,
    content_type: str = "application/json",
    close: bool = False,
) -> bytes:
    """One HTTP/1.1 response: a str payload is the body, anything else
    is sent as sorted-key JSON."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


class _Connection(asyncio.Protocol):
    """One client connection, served from its receive buffer.

    ``_serve`` answers at most one request per call: it parses the next
    whole request, dispatches it and writes the response, then queues
    itself for the next loop iteration if more bytes are buffered.  One
    timer keeps the read deadline: ``_deadline`` moves forward each time
    a piece of a request completes, and the timer re-arms itself when
    it fires before the current deadline.
    """

    def __init__(self, server: "ServiceHTTPServer") -> None:
        self._server = server
        self._service = server.service
        self._timeout = server.service.config.read_timeout
        self._buffer = bytearray()
        #: Where the search for the current line's end resumes.
        self._scan = 0
        self._part = _REQUEST_LINE
        self._request: tuple[str, str] = ("", "")
        self._header_lines = 0
        self._content_length = ""
        self._body_length = 0
        #: A piece of a request completed since the deadline was set.
        self._progress = False
        self._deadline = 0.0
        self._timer: asyncio.TimerHandle | None = None
        #: A ``_serve`` call is queued on the loop.
        self._scheduled = False
        #: The client is not reading; nor is the connection.
        self._paused = False
        self._eof = False
        self._closed = False

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        self._server._connections.add(self)
        self._arm()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if not (self._scheduled or self._paused):
            self._serve()
        elif len(self._buffer) > _READ_AHEAD:
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if not (self._scheduled or self._paused):
            self._await_bytes()
        return True  # stay open to finish writing; _await_bytes closes

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._schedule()

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._closed:
            self._closed = True
            if self._mid_request or exc is not None:
                self._service.record_error(
                    "client_disconnect",
                    detail="connection dropped mid-request"
                    if self._mid_request
                    else "connection dropped",
                )

    # ------------------------------------------------------------------
    @property
    def _mid_request(self) -> bool:
        """Bytes of a request have arrived that no response answered."""
        return bool(self._buffer) or self._part != _REQUEST_LINE

    def close(self) -> None:
        """Close after writing what is buffered; counts nothing."""
        self._closed = True
        self._transport.close()

    def _schedule(self) -> None:
        self._scheduled = True
        self._loop.call_soon(self._serve)

    def _serve(self) -> None:
        self._scheduled = False
        if self._closed:
            return
        if self._server.shutdown_event.is_set():
            self.close()
            return
        try:
            request = self._parse()
        except _HTTPError as err:
            self._service.record_error(err.reason, detail=err.detail)
            self._fail(
                err.status,
                {"error": err.detail or err.reason, "reason": err.reason},
            )
            return
        if request is None:
            self._await_bytes()
            return
        method, path, body = request
        try:
            status, payload, content_type = self._server._dispatch(
                method, path, body
            )
        except BaseException:
            self.close()
            raise
        self._transport.write(_response(status, payload, content_type))
        if path == "/shutdown" and status == 200:
            self.close()
            self._server.shutdown_event.set()
        elif self._paused:
            pass  # resume_writing serves the rest
        elif self._buffer:
            # Another request is already here: answer it on the next
            # loop iteration, so other connections get a turn.
            self._schedule()
        else:
            self._await_bytes()

    def _await_bytes(self) -> None:
        """Wait for the rest of the next request, or end the connection
        when the client has sent its last byte."""
        if self._eof:
            if self._mid_request:
                self._service.record_error(
                    "client_disconnect",
                    detail="connection dropped mid-request",
                )
            self.close()
            return
        self._transport.resume_reading()
        if self._progress:
            self._progress = False
            self._arm()

    def _arm(self) -> None:
        """Give the next piece of a request ``read_timeout`` to arrive."""
        self._deadline = self._loop.time() + self._timeout
        if self._timer is None:
            self._timer = self._loop.call_at(self._deadline, self._expire)

    def _expire(self) -> None:
        self._timer = None
        if self._closed or self._scheduled or self._paused:
            return  # the connection re-arms when it next awaits bytes
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._expire)
        elif self._mid_request:
            self._service.record_error(
                "read_timeout", detail="request read stalled"
            )
            self._fail(408, {"error": "request read timed out"})
        else:
            self.close()  # idle between requests: not a fault

    def _fail(self, status: int, payload: dict) -> None:
        self._transport.write(_response(status, payload, close=True))
        self.close()

    # ------------------------------------------------------------------
    def _parse(self) -> tuple[str, str, bytes] | None:
        """The next whole request as ``(method, path, body)``, or None
        until more bytes arrive; a framing fault raises ``_HTTPError``."""
        buffer = self._buffer
        while self._part != _BODY:
            if self._part == _REQUEST_LINE:
                limit, what = _MAX_REQUEST_LINE, "request line"
            else:
                limit, what = _MAX_HEADER_LINE, "header line"
            end = buffer.find(b"\n", self._scan) + 1
            if not end:
                if len(buffer) >= limit:
                    raise _HTTPError(400, "bad_request", f"{what} too long")
                self._scan = len(buffer)
                return None
            if end > limit:
                raise _HTTPError(400, "bad_request", f"{what} too long")
            line = buffer[:end].decode("latin-1")
            del buffer[:end]
            self._scan = 0
            self._progress = True
            if self._part == _REQUEST_LINE:
                self._start_request(line)
            elif line in ("\r\n", "\n"):
                self._end_head()
            else:
                self._header_lines += 1
                if self._header_lines == _MAX_HEADER_LINES:
                    raise _HTTPError(400, "bad_request", "too many headers")
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    self._content_length = value.strip()
        length = self._body_length
        if len(buffer) < length:
            return None
        body = bytes(buffer[:length])
        del buffer[:length]
        self._progress = True
        self._part = _REQUEST_LINE
        return (*self._request, body)

    def _start_request(self, line: str) -> None:
        parts = line.strip().split()
        if len(parts) != 3:
            raise _HTTPError(
                400, "bad_request", f"malformed request line: {parts}"
            )
        method, target, _version = parts
        self._request = (method, target.split("?", 1)[0])
        self._header_lines = 0
        self._content_length = ""
        self._part = _HEADERS

    def _end_head(self) -> None:
        declared = self._content_length or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HTTPError(
                400, "bad_request", f"invalid Content-Length {declared!r}"
            )
        length = int(declared)
        cap = self._service.config.max_body_bytes
        if length > cap:
            raise _HTTPError(
                413,
                "body_too_large",
                f"body of {length} bytes exceeds the {cap}-byte cap",
            )
        self._body_length = length
        self._part = _BODY


class ServiceHTTPServer:
    """One engine, one listening socket, many keep-alive connections.

    With ``tenants`` (a
    :class:`~repro.service.tenants.MultiTenantService`) the server also
    routes ``POST /ingest/<tenant>`` to the named tenant's engine and
    appends the fleet's tenant-labeled counters to ``GET /metrics``.
    ``service`` stays the primary engine: it serves the unprefixed
    routes and accounts transport-level faults (which have no tenant).
    When it is one of the tenants, an unprefixed ``POST /ingest`` goes
    through the registry as ``POST /ingest/<its tenant>`` would, so the
    tenant counters see every row it accepts.
    """

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.tenants = tenants
        # The tenant the primary engine serves, if it is one.
        self._primary_tenant = None
        if tenants is not None:
            self._primary_tenant = next(
                (t for t in tenants.tenants if tenants.service(t) is service),
                None,
            )
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self.shutdown_event = asyncio.Event()
        self._routes = {
            "/ingest": ("POST", self._route_ingest),
            "/metrics": ("GET", self._route_metrics),
            "/health": ("GET", self._route_health),
            "/version": ("GET", self._route_version),
            "/refit": ("POST", self._route_refit),
            "/checkpoint": ("POST", self._route_checkpoint),
            "/shutdown": ("POST", self._route_shutdown),
        }

    @classmethod
    def for_tenants(
        cls, tenants, host: str = "127.0.0.1", port: int = 0
    ) -> "ServiceHTTPServer":
        """A multi-tenant server with the first tenant as primary."""
        primary = tenants.service(tenants.tenants[0])
        return cls(primary, host=host, port=port, tenants=tenants)

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the socket; returns the bound (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            partial(_Connection, self), self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or a cancelled task)."""
        if self._server is None:
            await self.start()
        async with self._server:
            try:
                await self.shutdown_event.wait()
            finally:
                for connection in list(self._connections):
                    connection.close()
        self.service.close()

    # ------------------------------------------------------------------
    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, object, str]:
        if path.startswith("/ingest/") and self.tenants is not None:
            if method != "POST":
                return (
                    405,
                    {"error": f"{path} expects POST, got {method}"},
                    "application/json",
                )
            return self._route_ingest_tenant(
                unquote(path[len("/ingest/") :]), body
            )
        if path not in self._routes:
            return 404, {"error": f"unknown path {path}"}, "application/json"
        expected, handler = self._routes[path]
        if method != expected:
            return (
                405,
                {"error": f"{path} expects {expected}, got {method}"},
                "application/json",
            )
        return handler(body)

    def _parse_json(self, body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            self.service.record_error("malformed_json", detail=str(err))
            raise _HTTPError(
                400, "malformed_json", f"body is not valid JSON: {err}"
            ) from err

    def _route_ingest_tenant(
        self, tenant_id: str, body: bytes
    ) -> tuple[int, object, str]:
        """``POST /ingest/<tenant>``: score a batch under one tenant."""
        try:
            self.tenants.service(tenant_id)
        except ServiceError:
            return (
                404,
                {
                    "error": f"unknown tenant {tenant_id!r}",
                    "reason": "unknown_tenant",
                    "accepted": 0,
                },
                "application/json",
            )
        return self._route_ingest(
            body, ingest_block=partial(self.tenants.ingest_block, tenant_id)
        )

    def _route_ingest(
        self, body: bytes, ingest_block=None
    ) -> tuple[int, object, str]:
        """Parse an ingest body and stream it through the block path.

        Single-row (``{"row": ...}``) and multi-row (``{"rows": ...}``)
        payloads both become one :meth:`DetectionService.ingest_block`
        call — the engine parses the JSON rows into one ndarray and
        scores each contiguous accepted run with a single fused kernel
        pass, bit-identical to per-row ingestion.
        """
        if ingest_block is None:
            ingest_block = (
                self.service.ingest_block
                if self._primary_tenant is None
                else partial(self.tenants.ingest_block, self._primary_tenant)
            )
        try:
            payload = self._parse_json(body)
        except _HTTPError as err:
            return (
                err.status,
                {"error": err.detail, "reason": err.reason, "accepted": 0},
                "application/json",
            )
        if isinstance(payload, dict) and "row" in payload:
            rows = [payload["row"]]
            bins = [payload["bin"]] if "bin" in payload else None
        elif isinstance(payload, dict) and "rows" in payload:
            rows = payload["rows"]
            bins = payload.get("bins")
        else:
            return self._reject_body(
                "bad_payload",
                "payload must carry 'row' or 'rows'",
                "no 'row' or 'rows' key",
            )
        if not isinstance(rows, list):
            return self._reject_body(
                "bad_payload", "'rows' must be a list", "'rows' is not a list"
            )
        cap = self.service.config.max_rows_per_request
        if len(rows) > cap:
            return self._reject_body(
                "too_many_rows",
                f"{len(rows)} rows exceed the per-request cap of {cap}",
                f"{len(rows)} rows in one request",
            )
        if bins is not None and (
            not isinstance(bins, list) or len(bins) != len(rows)
        ):
            return self._reject_body(
                "bad_payload",
                "'bins' must be a list matching 'rows'",
                "'bins' does not match 'rows'",
            )
        result = ingest_block(rows, bins)
        if result.rejected is not None:
            return (
                400,
                {
                    "error": str(result.rejected),
                    "reason": result.rejected.reason,
                    "accepted": result.accepted,
                    "alarms": result.alarms,
                },
                "application/json",
            )
        return 200, encode_ingest_response(result), "application/json"

    def _reject_body(
        self, reason: str, error: str, detail: str
    ) -> tuple[int, object, str]:
        """A counted 400 for an ingest body of the wrong shape."""
        self.service.record_error(reason, detail=detail)
        body = {"error": error, "reason": reason, "accepted": 0}
        return 400, body, "application/json"

    def _route_metrics(self, body: bytes) -> tuple[int, object, str]:
        text = self.service.metrics_text()
        if self.tenants is not None:
            # Fleet counters are tenant-labeled and disjoint from the
            # engine's names, so the expositions concatenate cleanly.
            text = text + self.tenants.metrics_text()
        return (
            200,
            text,
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _route_health(self, body: bytes) -> tuple[int, object, str]:
        return 200, self.service.health(), "application/json"

    def _route_version(self, body: bytes) -> tuple[int, object, str]:
        return 200, self.service.version_info(), "application/json"

    def _route_refit(self, body: bytes) -> tuple[int, object, str]:
        wait = True
        if body:
            try:
                payload = self._parse_json(body)
            except _HTTPError as err:
                return (
                    err.status,
                    {"error": err.detail, "reason": err.reason},
                    "application/json",
                )
            if isinstance(payload, dict):
                wait = bool(payload.get("wait", True))
        if not wait:
            started = self.service.request_refit()
            return (
                202,
                {"refit": "started" if started else "already running"},
                "application/json",
            )
        try:
            version = self.service.refit()
        except ServiceError as err:
            return (
                500,
                {"error": str(err), "reason": "refit_failed"},
                "application/json",
            )
        return 200, {"refit": "done", **version.summary()}, "application/json"

    def _route_checkpoint(self, body: bytes) -> tuple[int, object, str]:
        """Checkpoint to the configured path; a client names no file."""
        if body:
            try:
                payload = self._parse_json(body)
            except _HTTPError as err:
                return (
                    err.status,
                    {"error": err.detail, "reason": err.reason},
                    "application/json",
                )
            if isinstance(payload, dict) and "path" in payload:
                self.service.record_error(
                    "bad_payload", detail="checkpoint path in the request"
                )
                return (
                    400,
                    {
                        "error": "the checkpoint path is set by the "
                        "service, not the request",
                        "reason": "bad_payload",
                    },
                    "application/json",
                )
        try:
            written = self.service.checkpoint()
        except ServiceError as err:
            return (
                500,
                {"error": str(err), "reason": "checkpoint_failed"},
                "application/json",
            )
        return 200, {"checkpoint": "written", **written}, "application/json"

    def _route_shutdown(self, body: bytes) -> tuple[int, object, str]:
        return 200, {"status": "shutting down"}, "application/json"


async def _serve_async(
    service: DetectionService, host: str, port: int, announce=None
) -> None:
    server = ServiceHTTPServer(service, host=host, port=port)
    bound_host, bound_port = await server.start()
    if announce is not None:
        announce(bound_host, bound_port)
    loop = asyncio.get_running_loop()
    try:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.shutdown_event.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass  # platform without signal support; /shutdown still works
    await server.serve_until_shutdown()


def serve(
    service: DetectionService,
    host: str = "127.0.0.1",
    port: int = 8787,
    announce=None,
) -> None:
    """Run the daemon until ``POST /shutdown`` or SIGINT/SIGTERM.

    ``announce(host, port)`` fires once the socket is bound — the CLI
    prints the address, the smoke tests use it to rendezvous.
    """
    asyncio.run(_serve_async(service, host, port, announce=announce))
