"""The load generator: one process, one keep-alive HTTP/1.1 connection.

Request bodies are encoded before a measured window starts, so the
generator's own work inside the window is writing bytes and parsing
response framing.  Response bodies are kept raw and decoded only after
the window.

* :meth:`Connection.call` is the closed loop: send, then wait for the
  whole response; latency runs from the send.

* :meth:`Connection.open_loop` sends each request at its due time
  whether or not earlier responses have arrived (HTTP/1.1 pipelining on
  the one connection), so a stalled server builds a queue instead of
  slowing the offered load.  Latency runs from the due time, and the
  generator's own lateness (send minus due) is recorded separately so a
  run where the generator, not the server, fell behind can be told
  apart.

Both wait by polling the socket rather than sleeping in the kernel: a
halted virtual CPU can take milliseconds to wake, and that delay would
read as server latency or generator lateness.  The generator keeps one
core busy while a request is in flight, which leaves the other to the
single-threaded process under test on a 2-core host.
"""

from __future__ import annotations

import gc
import select
import socket
import time
from dataclasses import dataclass, field

clock = time.perf_counter_ns


def encode(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Exchange:
    """One request as the generator saw it (times in ns)."""

    kind: str
    phase: str
    tenant: str | None = None
    rows: int = 0
    request: bytes = b""
    due_ns: int | None = None
    sent_ns: int = 0
    done_ns: int = 0
    status: int = 0
    body: bytes = b""
    response_bytes: int = 0
    #: Host slowness around the exchange (see ``speed.py``); 1.0 unscaled.
    scale: float = 1.0

    @property
    def request_bytes(self) -> int:
        return len(self.request)


@dataclass
class OpenLoopReport:
    backlog_at_window_end: int = 0
    late_sends_over_1ms: int = 0
    lateness_ns: list[int] = field(default_factory=list)


class Connection:
    """A blocking keep-alive connection that can also pipeline."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        self._buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def _take_response(self) -> tuple[int, bytes, int] | None:
        """``(status, body, wire bytes)`` of one buffered response."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self._buffer) < total:
            return None
        body = bytes(self._buffer[end + 4 : total])
        del self._buffer[:total]
        return status, body, total

    def _receive(self) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buffer += data

    def _await_readable(self, deadline_ns: int) -> None:
        while not select.select([self.sock], [], [], 0)[0]:
            if clock() > deadline_ns:
                raise TimeoutError("no response in time")

    def call(self, exchange: Exchange) -> Exchange:
        """Closed loop: send one request and read its whole response."""
        exchange.sent_ns = clock()
        self.sock.sendall(exchange.request)
        deadline = exchange.sent_ns + int(self.timeout * 1e9)
        while (response := self._take_response()) is None:
            self._await_readable(deadline)
            self._receive()
        exchange.done_ns = clock()
        exchange.status, exchange.body, exchange.response_bytes = response
        return exchange

    def open_loop(
        self, exchanges: list[Exchange], window_end_ns: int
    ) -> OpenLoopReport:
        """Send every exchange at its ``due_ns``; collect all responses."""
        report = OpenLoopReport()
        count = len(exchanges)
        outbox = bytearray()
        issued = completed = 0
        backlog = None
        deadline = window_end_ns + int(self.timeout * 1e9)
        # A collection pause in the generator would show up as lateness
        # the server never caused.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        self.sock.setblocking(False)
        try:
            while completed < count:
                now = clock()
                while issued < count and exchanges[issued].due_ns <= now:
                    exchange = exchanges[issued]
                    exchange.sent_ns = now
                    outbox += exchange.request
                    issued += 1
                    now = clock()
                if outbox:
                    try:
                        del outbox[: self.sock.send(outbox)]
                    except BlockingIOError:
                        pass
                if backlog is None and now >= window_end_ns:
                    backlog = issued - completed
                if now > deadline:
                    raise TimeoutError(
                        f"{count - completed} responses outstanding"
                    )
                readable, _, _ = select.select(
                    [self.sock], [self.sock] if outbox else [], [], 0
                )
                if readable:
                    try:
                        self._receive()
                    except BlockingIOError:
                        continue
                    while (response := self._take_response()) is not None:
                        exchange = exchanges[completed]
                        exchange.done_ns = clock()
                        (
                            exchange.status,
                            exchange.body,
                            exchange.response_bytes,
                        ) = response
                        completed += 1
        finally:
            if gc_was_enabled:
                gc.enable()
            self.sock.setblocking(True)
            self.sock.settimeout(self.timeout)
        report.backlog_at_window_end = 0 if backlog is None else backlog
        report.lateness_ns = [e.sent_ns - e.due_ns for e in exchanges]
        report.late_sends_over_1ms = sum(
            1 for late in report.lateness_ns if late > 1_000_000
        )
        return report
