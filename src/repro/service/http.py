"""Stdlib-asyncio HTTP front end for :class:`DetectionService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — the
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
POST   /checkpoint Persist the lifecycle atomically (``{"path": ...}``
                   overrides the configured destination).
POST   /shutdown   Graceful stop after the response is written (a
                   configured checkpoint path makes the stop warm).
====== =========== ====================================================

A SIGTERM takes the same path as ``POST /shutdown`` — the signal
handler sets the shutdown event, ``serve_until_shutdown`` falls through
to ``service.close()``, and ``close()`` writes a final checkpoint when
one is configured, so an orchestrator's ordinary kill restarts warm.

Transport faults never reach the engine as crashes: oversized bodies,
stalled reads, malformed framing, and mid-request disconnects each map
to one reason token on the service's error counter, and the connection
handler survives to serve the next client.

Every read of a request (its line, each header line, the body) runs
under its own ``read_timeout`` deadline; a read whose bytes are already
buffered returns without an event-loop iteration, so after each
response the connection yields once to let other connections in.

The 200 body of an ingest is formatted straight from the engine's
:class:`~repro.service.engine.BlockSegment` arrays by
:func:`encode_ingest_response`, byte-identical to ``json.dumps(...,
sort_keys=True)`` of the per-row payload; every other body goes
through ``json.dumps``.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import unquote

import numpy as np

from repro.exceptions import ServiceError
from repro.service.engine import BlockResult, DetectionService

__all__ = ["ServiceHTTPServer", "serve", "encode_ingest_response"]

_MAX_HEADER_LINES = 100
_MAX_REQUEST_LINE = 8192


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
    SPE with ``float.__repr__`` (what ``json.dumps`` writes for a finite
    float); flagged rows, which carry the identification, go through
    ``json.dumps`` on their dict.
    """
    results: list[str] = []
    alarm_bins: list[int] = []
    for segment in result.segments:
        row = (
            '{"bin": %d, "flag": false, "model_version": '
            + json.dumps(segment.model_version)
            + ', "spe": %s, "threshold": '
            + json.dumps(segment.threshold)
            + "}"
        )
        # json.dumps spells non-finite floats NaN/Infinity; repr does not.
        spe_text = (
            float.__repr__ if np.isfinite(segment.spe).all() else json.dumps
        )
        bins = range(segment.start_bin, segment.start_bin + len(segment.spe))
        texts = map(spe_text, segment.spe.tolist())
        if not segment.alarms:
            results.extend(map(row.__mod__, zip(bins, texts)))
            continue
        alarms = iter(segment.alarms)
        for bin_id, text, flag in zip(bins, texts, segment.flags.tolist()):
            if flag:
                results.append(
                    json.dumps(next(alarms).to_json(), sort_keys=True)
                )
            else:
                results.append(row % (bin_id, text))
        alarm_bins.extend(alarm.bin for alarm in segment.alarms)
    return '{"accepted": %d, "alarm_bins": [%s], "alarms": %d, "results": [%s]}' % (
        len(results),
        ", ".join(map(str, alarm_bins)),
        len(alarm_bins),
        ", ".join(results),
    )


async def _read_line(
    reader: asyncio.StreamReader, timeout: float, what: str
) -> bytes:
    """One line under its own deadline; over-long lines are a 400."""
    try:
        async with asyncio.timeout(timeout):
            return await reader.readline()
    except ValueError as err:  # the line overran the reader's buffer
        raise _HTTPError(400, "bad_request", f"{what} too long") from err


class ServiceHTTPServer:
    """One engine, one listening socket, many keep-alive connections.

    With ``tenants`` (a
    :class:`~repro.service.tenants.MultiTenantService`) the server also
    routes ``POST /ingest/<tenant>`` to the named tenant's engine and
    appends the fleet's tenant-labeled counters to ``GET /metrics``.
    ``service`` stays the primary engine: it serves the unprefixed
    routes and accounts transport-level faults (which have no tenant).
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
        self._server: asyncio.Server | None = None
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
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or a cancelled task)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self.shutdown_event.wait()
        self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timeout = self.service.config.read_timeout
        try:
            while not self.shutdown_event.is_set():
                try:
                    request = await self._read_request(reader, timeout)
                except asyncio.TimeoutError:
                    self.service.record_error(
                        "read_timeout", detail="request read stalled"
                    )
                    await self._respond_safe(
                        writer,
                        408,
                        {"error": "request read timed out"},
                        close=True,
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    self.service.record_error(
                        "client_disconnect",
                        detail="connection dropped mid-request",
                    )
                    return
                except _HTTPError as err:
                    self.service.record_error(err.reason, detail=err.detail)
                    await self._respond_safe(
                        writer,
                        err.status,
                        {"error": err.detail or err.reason,
                         "reason": err.reason},
                        close=True,
                    )
                    return
                if request is None:
                    return  # clean end of keep-alive connection
                method, path, body = request
                status, payload, content_type = self._dispatch(
                    method, path, body
                )
                keep_open = await self._respond_safe(
                    writer, status, payload, content_type=content_type
                )
                if not keep_open:
                    return
                if path == "/shutdown" and status == 200:
                    self.shutdown_event.set()
                    return
                # Pipelined requests are already buffered and their reads
                # never suspend: yield so other connections get a turn.
                await asyncio.sleep(0)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, timeout: float
    ) -> tuple[str, str, bytes] | None:
        line = await _read_line(reader, timeout, "request line")
        if not line:
            return None
        if len(line) > _MAX_REQUEST_LINE:
            raise _HTTPError(400, "bad_request", "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HTTPError(
                400, "bad_request", f"malformed request line: {parts}"
            )
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            header = await _read_line(reader, timeout, "header line")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HTTPError(400, "bad_request", "too many headers")
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HTTPError(
                400, "bad_request", f"invalid Content-Length {declared!r}"
            )
        length = int(declared)
        if length > self.service.config.max_body_bytes:
            raise _HTTPError(
                413,
                "body_too_large",
                f"body of {length} bytes exceeds the "
                f"{self.service.config.max_body_bytes}-byte cap",
            )
        body = b""
        if length > 0:
            async with asyncio.timeout(timeout):
                body = await reader.readexactly(length)
        return method, target.split("?", 1)[0], body

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
            body,
            ingest_block=lambda rows, bins: self.tenants.ingest_block(
                tenant_id, rows, bins=bins
            ),
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
            ingest_block = self.service.ingest_block
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
        path = None
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
                path = payload.get("path")
        try:
            written = self.service.checkpoint(path)
        except ServiceError as err:
            return (
                500,
                {"error": str(err), "reason": "checkpoint_failed"},
                "application/json",
            )
        return 200, {"checkpoint": "written", **written}, "application/json"

    def _route_shutdown(self, body: bytes) -> tuple[int, object, str]:
        return 200, {"status": "shutting down"}, "application/json"

    # ------------------------------------------------------------------
    async def _respond_safe(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        content_type: str = "application/json",
        close: bool = False,
    ) -> bool:
        """Write one response; False when the client vanished."""
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
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.service.record_error(
                "client_disconnect", detail="connection dropped mid-response"
            )
            return False
        return not close


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
