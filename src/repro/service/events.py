"""Structured JSONL event log for the always-on detection service.

Every operationally interesting moment — an alarm, a model hot-swap, a
rejected row, a failed refit — is appended to the log as one JSON object
per line.  The schema is deliberately flat and versioned
(``schema_version``) so downstream consumers (and the golden-file tests)
can detect shape drift the moment a field is renamed.

The clock is injectable: production uses ``time.time``, the golden tests
substitute a deterministic counter so a rendered log is byte-stable.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import IO

from repro.exceptions import ServiceError

__all__ = ["EventLog", "EVENT_SCHEMA_VERSION", "EVENT_KINDS"]

#: Bump when an event's field set changes; consumers key parsers on it.
EVENT_SCHEMA_VERSION = 1

#: One event per line, keys sorted, no spaces: ``json.dumps(record,
#: sort_keys=True, separators=(",", ":"))`` without building an encoder
#: per event.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Every kind the service emits.  ``emit`` rejects anything else so a
#: typo cannot silently create a new event stream.
EVENT_KINDS = (
    "service_start",
    "service_stop",
    "alarm",
    "model_swap",
    "refit_failed",
    "ingest_error",
    "checkpoint",
)


class EventLog:
    """Append-only JSONL event sink with a bounded in-memory tail.

    Parameters
    ----------
    path:
        Destination file (appended, created if missing).  ``None`` keeps
        events in memory only — the mode unit tests and the engine's
        default use.
    clock:
        Zero-argument callable returning the event timestamp.  Injected
        so tests can pin byte-identical logs.
    tail_size:
        Number of most-recent events retained in memory for
        :meth:`tail`.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        clock: Callable[[], float] = None,
        tail_size: int = 256,
    ) -> None:
        if clock is None:
            import time

            clock = time.time
        if tail_size < 1:
            raise ServiceError(f"tail_size must be >= 1, got {tail_size}")
        self._clock = clock
        self._lock = threading.Lock()
        self._tail: deque[dict] = deque(maxlen=tail_size)
        self._emitted = 0
        self._write_errors = 0
        self._path = Path(path) if path is not None else None
        self._handle: IO[str] | None = None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path | None:
        """The backing file, or None for a memory-only log."""
        return self._path

    @property
    def emitted(self) -> int:
        """Total events emitted over the log's lifetime."""
        with self._lock:
            return self._emitted

    @property
    def write_errors(self) -> int:
        """Lines the backing file refused (disk full, revoked handle...).

        Event logging is observability, not correctness: a failing disk
        must never take the scoring path down with it, so ``emit``
        swallows :class:`OSError` from the file write, counts it here,
        and keeps the event in the memory tail.
        """
        with self._lock:
            return self._write_errors

    # ------------------------------------------------------------------
    def _build_record(self, kind: str, fields: dict) -> dict:
        if kind not in EVENT_KINDS:
            raise ServiceError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        for reserved in ("schema_version", "kind", "time"):
            if reserved in fields:
                raise ServiceError(
                    f"event field {reserved!r} is reserved for the envelope"
                )
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "time": float(self._clock()),
            **fields,
        }

    def emit(self, kind: str, /, **fields) -> dict:
        """Append one event; returns the full record as written.

        Field order in the serialized line is canonical (sorted keys) so
        identical events serialize to identical bytes.
        """
        record = self._build_record(kind, fields)
        text = self._lines([record])
        with self._lock:
            self._emitted += 1
            self._tail.append(record)
            if self._handle is not None:
                # Fail-soft: a sick disk costs the persisted line, never
                # the caller — the record stays in the memory tail and
                # the loss is visible via ``write_errors``.
                try:
                    self._handle.write(text)
                    self._handle.flush()
                except OSError:
                    self._write_errors += 1
        return record

    def emit_many(self, events: list[tuple[str, dict]]) -> list[dict]:
        """Append a batch of ``(kind, fields)`` events in one write.

        The batched ingestion path accumulates a block's alarms (and its
        trailing rejection, if any) and lands them here: every record is
        serialized exactly as :meth:`emit` would, but the lines reach
        the backing file as **one buffered write with no flush** — the
        OS-level durability point is deferred to :meth:`flush`, which
        the service invokes on checkpoint and on close.  Record order in
        the batch is preserved, so the written log interleaves exactly
        like the per-row path's.
        """
        if not events:
            return []
        records = [self._build_record(kind, fields) for kind, fields in events]
        text = self._lines(records)
        with self._lock:
            self._emitted += len(records)
            self._tail.extend(records)
            if self._handle is not None:
                # Fail-soft like ``emit``, but the whole batch shares one
                # write: a refusal costs every line in it.
                try:
                    self._handle.write(text)
                except OSError:
                    self._write_errors += len(records)
        return records

    def _lines(self, records: list[dict]) -> str | None:
        """The records as JSONL text; None for a memory-only log, which
        keeps records and never writes a line."""
        if self._handle is None:
            return None
        return "".join(_encode_line(record) + "\n" for record in records)

    def flush(self) -> None:
        """Push buffered batch writes to the OS (fail-soft).

        Per-event :meth:`emit` flushes inline; only :meth:`emit_many`
        defers, so this is the durability point of the batched ingestion
        path — called on checkpoint and on close.
        """
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                except OSError:
                    self._write_errors += 1

    def tail(self, count: int | None = None) -> list[dict]:
        """The most recent events, oldest first."""
        with self._lock:
            events = list(self._tail)
        if count is not None:
            events = events[-count:]
        return events

    def close(self) -> None:
        """Close the backing file (memory tail stays readable)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------
    @staticmethod
    def read_jsonl(path: str | Path) -> Iterator[dict]:
        """Parse a written event log back into records."""
        with Path(path).open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
