"""The always-on detection engine (transport-agnostic core).

:class:`DetectionService` is everything the daemon does minus the HTTP:
validate one arriving row, score it against the *pinned active model
version*, identify/quantify it when flagged, fold it into the drift
tracker and the refit statistics, and keep every step observable through
Prometheus metrics and the JSONL event log.  The HTTP layer
(:mod:`repro.service.http`) is a thin adapter over this object, which is
what makes the fault-injection and parity suites fast: they drive the
engine directly and only exercise sockets where transport behavior
itself is under test.

Parity contract
---------------
Every accepted row is scored by the fused
:meth:`~repro.core.subspace.SubspaceModel.score_block` kernel against
the pinned version — the same row-decomposable projection the batch
path runs — so the SPE, flag, and
threshold of stream bin ``b`` are bit-identical to row ``b`` of a batch
:meth:`DetectionPipeline.detect
<repro.pipeline.pipeline.DetectionPipeline.detect>` under the same
model.  Model versions themselves refit through merged sufficient
statistics, bit-identical to an offline fit on the same prefix; together
the two guarantees give exact service-vs-batch alarm parity across any
hot-swap boundary, which the property tests replay.

The exponentially weighted :class:`~repro.core.incremental.\
IncrementalSubspaceTracker` is deliberately *not* on the scoring path:
it exposes drift telemetry (its own adaptive threshold, the principal
angle to the active version's subspace) that tells operators when the
refit cadence is too slow.  It is a function of the active version and
the history rows (see :meth:`DetectionService._advance_tracker`), and
ingest only folds it; the tracker's eigensolve and the principal-angle
SVD run when the gauges are computed, at exposition time.
"""

from __future__ import annotations

import numbers
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.identification import (
    flows_visible,
    identify_block,
    residual_signature_energy,
)
from repro.core.incremental import IncrementalSubspaceTracker
from repro.exceptions import IngestError, ServiceError
from repro.routing.routing_matrix import RoutingMatrix
from repro.service.events import EventLog
from repro.service.lifecycle import ModelLifecycleManager, ModelVersion
from repro.service.metrics import MetricsRegistry

__all__ = [
    "ServiceConfig",
    "DetectionService",
    "RowOutcome",
    "BlockSegment",
    "BlockResult",
    "ERROR_REASONS",
    "MAX_LINK_COUNT",
]

#: Every reason the error counter may carry, transport reasons included.
#: The fault suite asserts each injected fault lands on exactly one.
ERROR_REASONS = (
    "malformed_json",
    "bad_payload",
    "wrong_width",
    "non_finite",
    "out_of_range",
    "duplicate_bin",
    "out_of_order_bin",
    "too_many_rows",
    "body_too_large",
    "read_timeout",
    "client_disconnect",
    "bad_request",
    "refit_failed",
    "checkpoint_failed",
)

#: Largest link count magnitude ingest accepts (2**53, the largest
#: integer a float64 holds exactly, ~9 PB per bin).  Rows beyond it are
#: rejected as ``out_of_range`` before anything folds them.  The bound
#: keeps every derived quantity finite for any history: link variances
#: stay below 2**106, so the Q-limit's fourth-power moments of the
#: residual spectrum stay far inside float64 (folded rows from about
#: 1e75 up could overflow them, and refits, ingests and scrapes then
#: raised ``OverflowError``), and float32 scoring, whose SPE is at most
#: ``4 m MAX_LINK_COUNT**2``, stays finite for any network under about
#: a million links.
MAX_LINK_COUNT = float(2**53)

#: Drift-tracker forgetting factor: a memory of one week of 10-minute
#: bins, the span over which the paper finds the subspace stable (§7.1).
TRACKER_FORGETTING = 1.0 / 1008.0
#: Rows per drift-tracker fold and refresh: six hours of 10-minute bins.
TRACKER_INTERVAL = 36
#: Most rows one history read copies (within one default tile).
_TRACKER_READ_ROWS = 28 * TRACKER_INTERVAL


def _value_reject(values: np.ndarray) -> IngestError | None:
    """A row's value reject, if any: ``non_finite`` before ``out_of_range``."""
    # NaN fails the comparison too: one check admits a good row.
    if (np.abs(values) <= MAX_LINK_COUNT).all():
        return None
    if not np.isfinite(values).all():
        return IngestError(
            "row contains NaN or infinite link counts", reason="non_finite"
        )
    return IngestError(
        f"row contains a link count of magnitude above {MAX_LINK_COUNT:.0f}",
        reason="out_of_range",
    )


def _bin_reject(bin_value, expected: int) -> IngestError:
    """The reject of a bin that is not the next expected one."""
    if bin_value != bin_value:
        return _not_a_number(bin_value)
    if bin_value < expected:
        return IngestError(
            f"bin {bin_value} was already ingested (next is {expected})",
            reason="duplicate_bin",
        )
    return IngestError(
        f"bin {bin_value} arrived out of order (next is {expected})",
        reason="out_of_order_bin",
    )


def _not_a_number(bin_value) -> IngestError:
    return IngestError(
        f"bin {bin_value!r} is not a number", reason="bad_payload"
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the always-on service.

    Attributes
    ----------
    confidence, threshold_sigma, normal_rank, min_normal_rank,
    max_normal_rank, tile_rows:
        Model parameters, forwarded to the lifecycle manager.
    refit_interval:
        Automatically refit after this many rows ingested since the
        active version was trained; ``None`` leaves refits manual
        (``POST /refit``).
    synchronous_refit:
        Run automatic refits inline in the ingesting call instead of on
        a background thread.  Slower, but the swap boundary becomes a
        deterministic function of the row stream — the parity property
        tests rely on it.
    max_rows_per_request, max_body_bytes, read_timeout:
        Transport guards enforced by the HTTP layer.
    checkpoint_path:
        Where :meth:`DetectionService.checkpoint` persists the lifecycle
        (atomic temp-file-and-rename writes); ``None`` disables
        checkpointing.  A service built via
        :meth:`DetectionService.from_checkpoint` restarts warm from this
        file — same model version, same stream position.
    checkpoint_interval:
        Automatically checkpoint after this many ingested rows
        (requires ``checkpoint_path``); ``None`` leaves checkpoints
        manual (``POST /checkpoint`` or SIGTERM).
    dtype:
        Scoring precision, ``"float64"`` (default) or ``"float32"``.
        Fits — rank, threshold, components — always run in float64;
        float32 only changes the per-row projection arithmetic, with
        SPE error bounded by
        :func:`~repro.core.subspace.float32_spe_band`.
    """

    confidence: float = 0.999
    threshold_sigma: float = 3.0
    normal_rank: int | None = None
    min_normal_rank: int = 1
    max_normal_rank: int | None = None
    tile_rows: int = 1024
    refit_interval: int | None = None
    synchronous_refit: bool = False
    max_rows_per_request: int = 4096
    max_body_bytes: int = 8_000_000
    read_timeout: float = 10.0
    dtype: str = "float64"
    checkpoint_path: str | None = None
    checkpoint_interval: int | None = None

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class RowOutcome:
    """Scoring outcome for one accepted row.

    ``bin`` is the stream-relative index (0 for the first ingested row;
    warmup rows are never scored and own no bins).  Identification
    fields are ``None`` without a routing matrix, when unflagged, or
    when no flow is visible in the model's residual subspace.
    """

    bin: int
    spe: float
    threshold: float
    flag: bool
    model_version: int
    flow_index: int | None = None
    od_pair: tuple[str, str] | None = None
    magnitude: float | None = None
    estimated_bytes: float | None = None

    def to_json(self) -> dict:
        payload = {
            "bin": self.bin,
            "spe": self.spe,
            "threshold": self.threshold,
            "flag": self.flag,
            "model_version": self.model_version,
        }
        if self.flow_index is not None:
            payload["flow_index"] = self.flow_index
            payload["od_pair"] = list(self.od_pair)
            payload["magnitude"] = self.magnitude
            payload["estimated_bytes"] = self.estimated_bytes
        return payload


@dataclass(frozen=True, eq=False)
class BlockSegment:
    """One model-version run of an ingested block, as the kernel left it.

    Rows ``start_bin .. start_bin + len(spe) - 1`` were scored against
    ``threshold`` by version ``model_version``; ``spe`` and ``flags``
    are the fused kernel's arrays.  ``alarms`` holds one
    :class:`RowOutcome` per flagged row, in bin order, identified when
    the service has a routing matrix and the version can see a flow —
    the only rows that need one.
    """

    start_bin: int
    spe: np.ndarray
    flags: np.ndarray
    threshold: float
    model_version: int
    alarms: tuple[RowOutcome, ...] = ()

    def outcomes(self) -> list[RowOutcome]:
        """The segment's rows as :class:`RowOutcome` objects, in order."""
        alarms = iter(self.alarms)
        start, threshold, version = (
            self.start_bin,
            self.threshold,
            self.model_version,
        )
        return [
            next(alarms)
            if flag
            else RowOutcome(start + offset, spe, threshold, False, version)
            for offset, (spe, flag) in enumerate(
                zip(self.spe.tolist(), self.flags.tolist())
            )
        ]


@dataclass(frozen=True, eq=False)
class BlockResult:
    """Outcome of one :meth:`DetectionService.ingest_block` call.

    ``segments`` covers the accepted prefix (possibly the whole block),
    one :class:`BlockSegment` per model-version run; ``outcomes`` is the
    same prefix as per-row :class:`RowOutcome` objects, built on first
    read.  On a mid-block rejection ``rejected`` carries the
    :class:`~repro.exceptions.IngestError` of the first bad row, and
    ``rejected_index`` its position in the submitted block — the split
    point is exactly where a row-by-row replay would stop, and the
    error counter/event log are already updated when the result is
    returned.
    """

    segments: tuple[BlockSegment, ...] = ()
    rejected: IngestError | None = None
    rejected_index: int | None = None

    @property
    def accepted(self) -> int:
        """Rows ingested by this call (length of the accepted prefix)."""
        return sum(segment.spe.shape[0] for segment in self.segments)

    @property
    def alarms(self) -> int:
        """Accepted rows whose SPE exceeded the threshold."""
        return sum(len(segment.alarms) for segment in self.segments)

    @cached_property
    def outcomes(self) -> tuple[RowOutcome, ...]:
        """Every accepted row's :class:`RowOutcome`, in bin order."""
        outcomes: list[RowOutcome] = []
        for segment in self.segments:
            outcomes.extend(segment.outcomes())
        return tuple(outcomes)


class DetectionService:
    """Score → diagnose → fold → account, for every arriving row.

    Build via :meth:`from_warmup`.  All entry points are thread-safe;
    rows are serialized through one lock so stream bins are assigned in
    arrival order.  :meth:`ingest_block` is the one ingest path: the
    per-row contract, with control-plane work paid once per block;
    :meth:`ingest_row` is a one-row block.
    """

    def __init__(
        self,
        lifecycle: ModelLifecycleManager,
        routing: RoutingMatrix | None = None,
        config: ServiceConfig | None = None,
        event_log: EventLog | None = None,
        latency_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not lifecycle.is_bootstrapped:
            raise ServiceError(
                "the lifecycle must be bootstrapped before serving"
            )
        self.config = config or ServiceConfig()
        self.lifecycle = lifecycle
        self.events = event_log if event_log is not None else EventLog()
        self._latency_clock = latency_clock
        self._lock = threading.RLock()
        self._num_links = lifecycle.num_links
        self._warmup_rows = lifecycle.rows
        self._stream_rows = 0
        self._routing = routing
        self._directions: np.ndarray | None = None
        self._quant_ratio: np.ndarray | None = None
        if routing is not None:
            if routing.num_links != self._num_links:
                raise ServiceError(
                    f"routing matrix covers {routing.num_links} links but "
                    f"the warmup block has {self._num_links}"
                )
            self._directions = routing.normalized_columns()
            self._quant_ratio = routing.quantification_ratios()
        # (version, whether some flow is visible under it): decided once
        # per model version by _identifiable.
        self._visibility: tuple[ModelVersion | None, bool] = (None, False)
        self._refit_thread: threading.Thread | None = None
        self._last_refit_error: str | None = None
        self._tracker: IncrementalSubspaceTracker | None = None
        self._tracker_version: ModelVersion | None = None
        self._tracker_row = 0
        self._drift_key: tuple[int, int] | None = None
        self._build_metrics()
        self._refresh_model_gauges()
        self.events.emit(
            "service_start",
            num_links=self._num_links,
            warmup_rows=self._warmup_rows,
            model_version=lifecycle.current.version,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path,
        routing: RoutingMatrix | None = None,
        config: ServiceConfig | None = None,
        event_log: EventLog | None = None,
        refit_hook: Callable[[], None] | None = None,
        latency_clock: Callable[[], float] = time.perf_counter,
    ) -> "DetectionService":
        """Restart warm from a checkpoint written by :meth:`checkpoint`.

        The restored service scores under the same model version (the
        detector is refit bit-identically from the checkpointed rows),
        exposes the same drift gauges, and resumes at the same stream
        position — its next assigned bin continues where the
        checkpointing process stopped.  Unreadable or torn files raise
        :class:`~repro.exceptions.CheckpointError`.
        """
        lifecycle = ModelLifecycleManager.restore(path)
        lifecycle.refit_hook = refit_hook
        service = cls(
            lifecycle,
            routing=routing,
            config=config,
            event_log=event_log,
            latency_clock=latency_clock,
        )
        extra = lifecycle.restored_extra
        if extra:
            with service._lock:
                service._warmup_rows = int(
                    extra.get("warmup_rows", service._warmup_rows)
                )
                service._stream_rows = int(extra.get("stream_rows", 0))
        return service

    @classmethod
    def from_warmup(
        cls,
        warmup: np.ndarray,
        routing: RoutingMatrix | None = None,
        config: ServiceConfig | None = None,
        event_log: EventLog | None = None,
        refit_hook: Callable[[], None] | None = None,
        latency_clock: Callable[[], float] = time.perf_counter,
    ) -> "DetectionService":
        """Bootstrap a lifecycle on ``warmup`` and wrap a service on it."""
        config = config or ServiceConfig()
        lifecycle = ModelLifecycleManager(
            confidence=config.confidence,
            threshold_sigma=config.threshold_sigma,
            normal_rank=config.normal_rank,
            min_normal_rank=config.min_normal_rank,
            max_normal_rank=config.max_normal_rank,
            tile_rows=config.tile_rows,
            refit_hook=refit_hook,
            dtype=config.dtype,
        )
        lifecycle.bootstrap(warmup)
        return cls(
            lifecycle,
            routing=routing,
            config=config,
            event_log=event_log,
            latency_clock=latency_clock,
        )

    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        registry = MetricsRegistry()
        self.metrics = registry
        self._m_rows = registry.counter(
            "repro_rows_ingested_total", "Rows accepted and scored."
        )
        self._m_alarms = registry.counter(
            "repro_alarms_total", "Rows whose SPE exceeded the threshold."
        )
        self._m_errors = registry.counter(
            "repro_ingest_errors_total",
            "Rejected rows and transport faults, by reason.",
            label="reason",
        )
        self._m_refits = registry.counter(
            "repro_refits_total", "Successful model refits."
        )
        self._m_refit_failures = registry.counter(
            "repro_refit_failures_total",
            "Refit attempts that raised; the active model was kept.",
        )
        self._m_swaps = registry.counter(
            "repro_model_swaps_total", "Atomic model hot-swaps performed."
        )
        self._m_checkpoints = registry.counter(
            "repro_checkpoints_total",
            "Lifecycle checkpoints written successfully.",
        )
        self._g_spe = registry.gauge(
            "repro_spe_last", "SPE of the most recently scored row."
        )
        self._g_threshold = registry.gauge(
            "repro_spe_threshold",
            "Q-statistic limit of the active model version.",
        )
        self._g_rank = registry.gauge(
            "repro_normal_rank",
            "Normal-subspace rank of the active model version.",
        )
        self._g_version = registry.gauge(
            "repro_model_version", "Active model version id."
        )
        self._g_refresh_age = registry.gauge(
            "repro_model_refresh_age_rows",
            "Rows ingested since the active version was trained.",
        )
        self._g_tracker_threshold = registry.gauge(
            "repro_tracker_threshold",
            "Adaptive SPE limit of the drift tracker.",
        )
        self._g_drift = registry.gauge(
            "repro_tracker_drift_radians",
            "Largest principal angle between the drift tracker's "
            "subspace and the active model's.",
        )
        self._h_latency = registry.histogram(
            "repro_ingest_latency_seconds",
            "Wall-clock seconds spent handling one ingested row, "
            "accepted or rejected.",
        )

    def _advance_tracker(self) -> ModelVersion:
        """Fold the drift tracker up to the history; returns its version.

        The one place it changes: seeded from the active version, it
        folds each whole :data:`TRACKER_INTERVAL`-row interval of history
        since ``activated_at_row``, and any swap reseeds it."""
        version = self.lifecycle.current
        if version is not self._tracker_version:
            pca = version.detector.model.pca
            covariance = (pca.components * pca.eigenvalues()) @ pca.components.T
            self._tracker = IncrementalSubspaceTracker(
                normal_rank=version.normal_rank,
                forgetting=TRACKER_FORGETTING,
                refresh_interval=TRACKER_INTERVAL,
                confidence=self.config.confidence,
            ).warm_up_from_moments(pca.mean, covariance)
            self._tracker_version = version
            self._tracker_row = version.activated_at_row
        whole = (self.lifecycle.rows - self._tracker_row) // TRACKER_INTERVAL
        stop = self._tracker_row + whole * TRACKER_INTERVAL
        for row in range(self._tracker_row, stop, _TRACKER_READ_ROWS):
            rows = self.lifecycle.read_rows(row, min(row + _TRACKER_READ_ROWS, stop))
            for offset in range(0, rows.shape[0], TRACKER_INTERVAL):
                self._tracker.fold_block(rows[offset : offset + TRACKER_INTERVAL])
        self._tracker_row = stop
        return version

    def _refresh_model_gauges(self) -> None:
        """Set every model gauge; the only place tracker gauges are set.

        Reading the tracker runs the eigensolve of its last refresh
        point, if one is pending.  The drift SVD reruns only when the
        folded row or the active version changed since the last call.
        """
        version = self._advance_tracker()
        self._g_threshold.set(version.threshold)
        self._g_rank.set(version.normal_rank)
        self._g_version.set(version.version)
        self._g_refresh_age.set(self.lifecycle.rows - version.trained_rows)
        self._g_tracker_threshold.set(self._tracker.threshold)
        if (self._tracker_row, version.version) != self._drift_key:
            basis = version.detector.model.pca.components[:, : version.normal_rank]
            self._g_drift.set(self._tracker.drift_from(basis))
            self._drift_key = (self._tracker_row, version.version)

    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Measurement width ``m``."""
        return self._num_links

    @property
    def warmup_rows(self) -> int:
        """Rows in the bootstrap block (never scored, own no bins)."""
        return self._warmup_rows

    @property
    def rows_ingested(self) -> int:
        """Stream rows accepted so far (= the next bin to assign)."""
        with self._lock:
            return self._stream_rows

    @property
    def last_refit_error(self) -> str | None:
        with self._lock:
            return self._last_refit_error

    # ------------------------------------------------------------------
    def record_error(self, reason: str, detail: str = "") -> None:
        """Count one rejection/fault and log it (shared with HTTP layer)."""
        if reason not in ERROR_REASONS:
            raise ServiceError(f"unknown error reason {reason!r}")
        self._m_errors.inc(label_value=reason)
        self.events.emit("ingest_error", reason=reason, detail=detail)

    def ingest_row(self, row, bin_id: int | None = None) -> RowOutcome:
        """Validate, score, diagnose, and fold one arriving row.

        A one-row :meth:`ingest_block`.  Raises
        :class:`~repro.exceptions.IngestError` on rejection — the error
        counter and event log are already updated when it leaves, and
        the service state is untouched (the stream position does not
        advance).  The latency histogram observes *every* row, accepted
        or rejected — rejections consume wall-clock too, and a flood of
        malformed traffic must not vanish from the latency telemetry.
        The event log is flushed before the call returns.
        """
        try:
            result = self.ingest_block(
                [row], bins=None if bin_id is None else [bin_id]
            )
        finally:
            # Blocks buffer their events; a lone row is its own
            # durability point, as a per-event ``emit`` would be.
            self.events.flush()
        if result.rejected is not None:
            raise result.rejected
        return result.outcomes[0]

    def ingest_rows(
        self, rows, bins=None
    ) -> list[RowOutcome]:
        """Ingest a batch in order; stops at (and re-raises) the first
        rejection, leaving earlier rows ingested.

        Delegates to :meth:`ingest_block` and returns the accepted rows
        as :class:`RowOutcome` objects.
        """
        result = self.ingest_block(rows, bins=bins)
        if result.rejected is not None:
            raise result.rejected
        return list(result.outcomes)

    # -- the ingest path -----------------------------------------------
    def ingest_block(self, rows, bins=None) -> BlockResult:
        """Validate, score, diagnose, and fold a block of rows at once.

        **Exact by construction.**  The accepted rows are scored through
        the row-decomposable :meth:`~repro.core.subspace.\
SubspaceModel.score_block` kernel — one call per contiguous run under
        one model version — so every SPE, flag, and identification is
        bit-identical to ingesting the rows one at a time, including
        across synchronous hot-swap boundaries (the run splits exactly
        where a refit would fall due row-by-row).  Validation is
        vectorized (masks over the ``(n, m)`` block) but keeps the
        per-row reject contract: rows are checked in order, each for
        structure, then values, then its bin; the first bad row splits
        the block, and rejects never advance the stream.  A payload that
        is not one ``(n, m)`` array with numeric bins is read row by
        row up to its first structurally bad row (or non-numeric bin),
        and the rows before it are validated as a block.

        A rejection does not raise: the returned :class:`BlockResult`
        carries the accepted prefix plus the
        :class:`~repro.exceptions.IngestError`, so transports can report
        both without re-scoring.  Accounting is amortized — one
        latency-histogram observation and one buffered event-log write
        per block (flushed on checkpoint and close).  Auto-checkpoints
        are evaluated once per block: crossing one or more
        ``checkpoint_interval`` multiples inside a block writes a single
        checkpoint at the block boundary.
        """
        begin = self._latency_clock()
        try:
            return self._ingest_block(rows, bins)
        finally:
            self._h_latency.observe(self._latency_clock() - begin)

    def _ingest_block(self, rows, bins) -> BlockResult:
        pending: list[tuple[str, dict]] = []
        due_async = False
        with self._lock:
            try:
                values, bins, bins_arr, stop = self._coerce_block(rows, bins)
                if values.shape[0] == 0 and stop is None:
                    return BlockResult()
                before = self._stream_rows
                split, reject = self._validate_block(values, bins, bins_arr)
                if reject is None:
                    # The row the scan stopped at follows every scanned
                    # row, so it is rejected at index ``split``.
                    reject = stop
                segments = self._ingest_accepted(values[:split], pending)
                interval = self.config.checkpoint_interval
                checkpoint_due = (
                    self.config.checkpoint_path is not None
                    and interval is not None
                    and self._stream_rows // interval > before // interval
                )
                if checkpoint_due:
                    self._drain_events(pending)
                    # Fail-soft: a sick disk is counted under
                    # ``checkpoint_failed`` and serving continues.
                    try:
                        self.checkpoint()
                    except ServiceError:
                        pass
                if reject is not None:
                    self._m_errors.inc(label_value=reject.reason)
                    pending.append(
                        (
                            "ingest_error",
                            {"reason": reject.reason, "detail": str(reject)},
                        )
                    )
                version = self.lifecycle.current
                due_async = (
                    self.config.refit_interval is not None
                    and not self.config.synchronous_refit
                    and self.lifecycle.rows - version.trained_rows
                    >= self.config.refit_interval
                )
                result = BlockResult(
                    segments=segments,
                    rejected=reject,
                    rejected_index=None if reject is None else split,
                )
            finally:
                self._drain_events(pending)
        if due_async:
            self.request_refit()
        return result

    def _coerce_block(self, rows, bins):
        """``(values, bins, bins_array, stop)`` of a submitted block.

        A payload that forms one ``(n, m)`` array with numeric bins is
        taken whole.  Otherwise the rows are read one at a time, up to
        the first that is not numeric, not one-dimensional or not ``m``
        wide, or whose bin is not a number: ``values`` stacks the rows
        before it and ``stop`` is that row's
        :class:`~repro.exceptions.IngestError` (for a bad bin, the
        row's value reject if it has one), else None.
        """
        try:
            values = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            values = None
        if values is not None and values.ndim == 2:
            if bins is None:
                return values, None, None, None
            try:
                bins_arr = np.asarray(bins)
            except (TypeError, ValueError):
                bins_arr = None
            if (
                bins_arr is not None
                and bins_arr.ndim == 1
                and bins_arr.shape[0] == values.shape[0]
                and bins_arr.dtype.kind in "iufb"
            ):
                return values, bins, bins_arr, None
        scanned, scanned_bins, stop = [], [], None
        for index, row in enumerate(rows):
            try:
                row_values = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError) as err:
                stop = IngestError(
                    f"row is not numeric: {err}", reason="bad_payload"
                )
                break
            if row_values.ndim != 1:
                stop = IngestError(
                    "a row must be one-dimensional, got shape "
                    f"{row_values.shape}",
                    reason="bad_payload",
                )
                break
            if row_values.shape[0] != self._num_links:
                stop = self._wrong_width(row_values.shape[0])
                break
            if bins is not None:
                bin_value = bins[index]
                if not isinstance(bin_value, numbers.Real):
                    stop = _value_reject(row_values) or _not_a_number(
                        bin_value
                    )
                    break
                scanned_bins.append(bin_value)
            scanned.append(row_values)
        values = np.array(scanned).reshape(len(scanned), self._num_links)
        if bins is None:
            return values, None, None, stop
        return values, scanned_bins, np.asarray(scanned_bins), stop

    def _wrong_width(self, links: int) -> IngestError:
        return IngestError(
            f"row has {links} links, expected {self._num_links}",
            reason="wrong_width",
        )

    def _validate_block(
        self, values: np.ndarray, bins, bins_arr
    ) -> tuple[int, IngestError | None]:
        """First-bad split of a rectangular block, per-row semantics.

        Returns ``(split, error)``: rows ``[:split]`` are exactly the
        rows a row-by-row check would accept, and ``error`` (None when
        the whole block passes) is the :class:`IngestError` of row
        ``split`` — its value reject, else its bin's.
        """
        n = values.shape[0]
        if values.shape[1] != self._num_links:
            return 0, self._wrong_width(values.shape[1])
        # One pass covers both value checks: NaN fails the comparison.
        bad = ~(np.abs(values) <= MAX_LINK_COUNT).all(axis=1)
        if bins_arr is not None:
            # A NaN bin is unequal to every expected bin.
            bad |= bins_arr != self._stream_rows + np.arange(n)
        if not bad.any():
            return n, None
        split = int(np.argmax(bad))
        reject = _value_reject(values[split])
        if reject is None:
            reject = _bin_reject(bins[split], self._stream_rows + split)
        return split, reject

    def _ingest_accepted(
        self, accepted: np.ndarray, pending: list
    ) -> tuple[BlockSegment, ...]:
        """Score and fold an accepted run, splitting at refit boundaries.

        Each sub-run is every row up to the next synchronous-refit due
        point: one fused ``score_block`` call, one history append, the
        tracker's folds of any completed interval — then the refit (if
        due) swaps the version exactly where a row-by-row replay would
        have swapped it.  Each sub-run becomes one :class:`BlockSegment`
        holding the kernel's arrays; only flagged rows build a
        :class:`RowOutcome`.  They are identified one at a time with a
        single-row call, so identification does not depend on the
        block's size (BLAS matmuls are not row-decomposable; alarms are
        rare enough that this costs nothing measurable).
        """
        segments: list[BlockSegment] = []
        position = 0
        total = accepted.shape[0]
        synchronous = (
            self.config.synchronous_refit
            and self.config.refit_interval is not None
        )
        while position < total:
            version = self.lifecycle.current
            take = total - position
            if synchronous:
                until_due = self.config.refit_interval - (
                    self.lifecycle.rows - version.trained_rows
                )
                take = min(take, max(1, until_due))
            chunk = accepted[position : position + take]
            threshold = float(version.threshold)
            scored = version.detector.model.score_block(
                chunk, threshold=threshold
            )
            start_bin = self._stream_rows
            alarms = []
            for i in np.flatnonzero(scored.flags).tolist():
                outcome = RowOutcome(
                    bin=start_bin + i,
                    spe=float(scored.spe[i]),
                    threshold=threshold,
                    flag=True,
                    model_version=version.version,
                )
                if self._identifiable(version):
                    outcome = self._identify(outcome, chunk[i], version)
                pending.append(("alarm", outcome.to_json()))
                alarms.append(outcome)
            segments.append(
                BlockSegment(
                    start_bin=start_bin,
                    spe=scored.spe,
                    flags=scored.flags,
                    threshold=threshold,
                    model_version=version.version,
                    alarms=tuple(alarms),
                )
            )
            self._stream_rows += take
            self._m_rows.inc(float(take))
            self._g_spe.set(float(scored.spe[take - 1]))
            if alarms:
                self._m_alarms.inc(float(len(alarms)))
            self.lifecycle.append_rows(chunk)
            self._advance_tracker()
            position += take
            if synchronous and (
                self.lifecycle.rows - version.trained_rows
                >= self.config.refit_interval
            ):
                self._drain_events(pending)
                self._do_refit()
        return tuple(segments)

    def _drain_events(self, pending: list) -> None:
        if pending:
            self.events.emit_many(list(pending))
            pending.clear()

    def _identifiable(self, version: ModelVersion) -> bool:
        """Whether alarms under ``version`` can name a flow.

        Needs a routing matrix and a flow visible in the version's
        residual subspace — a property of the model, decided once per
        version.  An alarm no flow can explain is served and logged
        without identification fields, as without a routing matrix.
        """
        if self._directions is None:
            return False
        if self._visibility[0] is not version:
            energy = residual_signature_energy(
                version.detector.model, self._directions
            )
            self._visibility = (version, flows_visible(energy))
        return self._visibility[1]

    def _identify(
        self,
        outcome: RowOutcome,
        values: np.ndarray,
        version: ModelVersion,
    ) -> RowOutcome:
        identification = identify_block(
            version.detector.model, self._directions, values[None, :]
        )
        winner = int(identification.flow_indices[0])
        magnitude = float(identification.magnitudes[0])
        return replace(
            outcome,
            flow_index=winner,
            od_pair=self._routing.od_pairs[winner],
            magnitude=magnitude,
            estimated_bytes=magnitude * float(self._quant_ratio[winner]),
        )

    # ------------------------------------------------------------------
    def refit(self) -> ModelVersion:
        """Fit a candidate from the accumulated statistics and hot-swap.

        On failure the active model is untouched, the failure counter
        and event log record the cause, and the error re-raises as
        :class:`~repro.exceptions.ServiceError`.
        """
        with self._lock:
            return self._do_refit()

    def _do_refit(self) -> ModelVersion:
        try:
            # The fit runs outside the engine lock: ingest keeps flowing.
            detector, trained_rows = self.lifecycle.fit_candidate()
        except Exception as err:
            with self._lock:
                self._last_refit_error = str(err)
            self._m_refit_failures.inc()
            self.record_error("refit_failed", detail=str(err))
            self.events.emit("refit_failed", error=str(err))
            raise ServiceError(f"refit failed: {err}") from err
        with self._lock:
            # Between two blocks, so the boundary is where scoring moved.
            version = self.lifecycle.activate(detector, trained_rows)
            self._last_refit_error = None
            self._m_refits.inc()
            self._m_swaps.inc()
            self._refresh_model_gauges()
            self.events.emit("model_swap", **version.summary())
            return version

    def checkpoint(self, path: str | None = None) -> dict:
        """Persist the lifecycle (plus stream position) atomically.

        Writes to ``path`` or the configured ``checkpoint_path`` via the
        lifecycle's temp-file-and-rename protocol, so a crash mid-write
        leaves the previous complete checkpoint intact.  On success the
        checkpoint counter and event log record it; on failure the
        ``checkpoint_failed`` error reason is counted and the cause
        re-raises as :class:`~repro.exceptions.ServiceError`.
        """
        target = path if path is not None else self.config.checkpoint_path
        if target is None:
            raise ServiceError(
                "no checkpoint path: pass one or set "
                "ServiceConfig.checkpoint_path"
            )
        with self._lock:
            # A checkpoint is a durability point: buffered batch events
            # must not outlive a crash the checkpoint survives.
            self.events.flush()
            extra = {
                "warmup_rows": self._warmup_rows,
                "stream_rows": self._stream_rows,
            }
            try:
                summary = self.lifecycle.checkpoint(target, extra=extra)
            except Exception as err:
                self.record_error("checkpoint_failed", detail=str(err))
                raise ServiceError(f"checkpoint failed: {err}") from err
            self._m_checkpoints.inc()
            self.events.emit(
                "checkpoint",
                path=str(target),
                rows_ingested=self._stream_rows,
                model_version=summary["version"],
            )
            return {
                "path": str(target),
                "rows_ingested": self._stream_rows,
                "current": summary,
            }

    def request_refit(self) -> bool:
        """Kick off a background refit; False when one is in flight."""
        with self._lock:
            if self._refit_thread is not None and self._refit_thread.is_alive():
                return False
            thread = threading.Thread(
                target=self._background_refit,
                name="repro-service-refit",
                daemon=True,
            )
            self._refit_thread = thread
        thread.start()
        return True

    def _background_refit(self) -> None:
        try:
            self._do_refit()
        except ServiceError:
            pass  # already counted and logged; serving continues

    def wait_for_refit(self, timeout: float | None = None) -> None:
        """Block until no background refit is running (test helper)."""
        with self._lock:
            thread = self._refit_thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness payload: always ``status: ok`` while the object
        serves — faults are reported through counters, not health."""
        version = self.lifecycle.current
        with self._lock:
            refitting = (
                self._refit_thread is not None
                and self._refit_thread.is_alive()
            )
            return {
                "status": "ok",
                "model_version": version.version,
                "normal_rank": int(version.normal_rank),
                "threshold": float(version.threshold),
                "num_links": self._num_links,
                "warmup_rows": self._warmup_rows,
                "rows_ingested": self._stream_rows,
                "alarms": int(self._m_alarms.value()),
                "errors": int(self._m_errors.total()),
                "refit_in_flight": refitting,
                "last_refit_error": self._last_refit_error,
            }

    def version_info(self) -> dict:
        """``/version`` payload: the active model plus full history."""
        history = self.lifecycle.version_history()
        return {
            "current": history[-1].summary(),
            "history": [version.summary() for version in history],
            "dtype": self.config.dtype,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition (refreshes model gauges first)."""
        with self._lock:
            self._refresh_model_gauges()
        return self.metrics.render()

    def close(self) -> None:
        """Checkpoint (if configured), emit the stop event, close the log.

        The shutdown checkpoint is what makes a SIGTERM restart warm:
        the daemon's signal handler funnels into ``close()``, so the
        last stream position always lands on disk before the process
        exits.  Like auto-checkpoints it is fail-soft — a dying disk
        must not block shutdown.
        """
        if self.config.checkpoint_path is not None:
            try:
                self.checkpoint()
            except ServiceError:
                pass  # counted under checkpoint_failed; keep shutting down
        self.events.flush()
        self.events.emit(
            "service_stop",
            rows_ingested=self.rows_ingested,
            alarms=int(self._m_alarms.value()),
        )
        self.events.close()
