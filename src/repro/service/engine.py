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
it folds every arrival to expose drift telemetry (its own adaptive
threshold, the principal angle to the active version's subspace) that
tells operators when the refit cadence is too slow.  Ingest only folds;
the tracker's eigensolve and the principal-angle SVD run when the
gauges are computed, at exposition time.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.identification import identify_block
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
    "BlockResult",
    "ERROR_REASONS",
]

#: Every reason the error counter may carry, transport reasons included.
#: The fault suite asserts each injected fault lands on exactly one.
ERROR_REASONS = (
    "malformed_json",
    "bad_payload",
    "wrong_width",
    "non_finite",
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
    forgetting, tracker_refresh_interval:
        Drift-tracker parameters (see
        :class:`~repro.core.incremental.IncrementalSubspaceTracker`).
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
    forgetting: float = 1.0 / 1008.0
    tracker_refresh_interval: int | None = 36
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
    fields are ``None`` without a routing matrix or when unflagged.
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


@dataclass(frozen=True)
class BlockResult:
    """Outcome of one :meth:`DetectionService.ingest_block` call.

    ``outcomes`` covers the accepted prefix (possibly the whole block).
    On a mid-block rejection ``rejected`` carries the same
    :class:`~repro.exceptions.IngestError` the per-row path would have
    raised for that row, and ``rejected_index`` its position in the
    submitted block — the split point is exactly where a per-row replay
    would stop, and the error counter/event log are already updated
    when the result is returned.
    """

    outcomes: tuple[RowOutcome, ...]
    rejected: IngestError | None = None
    rejected_index: int | None = None

    @property
    def accepted(self) -> int:
        """Rows ingested by this call (length of the accepted prefix)."""
        return len(self.outcomes)

    @property
    def alarms(self) -> int:
        """Accepted rows whose SPE exceeded the threshold."""
        return sum(1 for outcome in self.outcomes if outcome.flag)


class DetectionService:
    """Score → diagnose → fold → account, one row at a time.

    Build via :meth:`from_warmup`.  All entry points are thread-safe;
    rows are serialized through one lock so stream bins are assigned in
    arrival order.  :meth:`ingest_block` is the batched fast path: the
    same contract per row, amortized control-plane work per block.
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
        self._refit_thread: threading.Thread | None = None
        self._last_refit_error: str | None = None
        self._build_metrics()
        self._seed_tracker(lifecycle.current)
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
        detector is refit bit-identically from the checkpointed
        sufficient statistics) and resumes at the same stream position —
        its next assigned bin continues where the checkpointing process
        stopped.  Unreadable or torn files raise
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

    def _seed_tracker(self, version: ModelVersion) -> None:
        pca = version.detector.model.pca
        covariance = (pca.components * pca.eigenvalues()) @ pca.components.T
        self._tracker = IncrementalSubspaceTracker(
            normal_rank=version.normal_rank,
            forgetting=self.config.forgetting,
            confidence=self.config.confidence,
            refresh_interval=self.config.tracker_refresh_interval,
        ).warm_up_from_moments(pca.mean, covariance)
        # (tracker eigensolves, model version) the drift gauge holds.
        self._drift_key: tuple[int, int] | None = None

    def _reference_basis(self, version: ModelVersion) -> np.ndarray:
        pca = version.detector.model.pca
        return pca.components[:, : version.normal_rank]

    def _refresh_model_gauges(self) -> None:
        """Set every model gauge; the only place tracker gauges are set.

        Reading the tracker runs the eigensolve of its last refresh
        point, if one is pending.  The drift SVD reruns only when that
        solve or the active version changed since the last call.
        """
        version = self.lifecycle.current
        self._g_threshold.set(version.threshold)
        self._g_rank.set(version.normal_rank)
        self._g_version.set(version.version)
        self._g_refresh_age.set(self.lifecycle.rows - version.trained_rows)
        self._g_tracker_threshold.set(self._tracker.threshold)
        key = (self._tracker.eigensolves, version.version)
        if key != self._drift_key:
            self._g_drift.set(
                self._tracker.drift_from(self._reference_basis(version))
            )
            self._drift_key = key

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

    def _validate_row(
        self, row, bin_id: int | None
    ) -> np.ndarray:
        try:
            values = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise IngestError(
                f"row is not numeric: {err}", reason="bad_payload"
            ) from err
        if values.ndim != 1:
            raise IngestError(
                f"a row must be one-dimensional, got shape {values.shape}",
                reason="bad_payload",
            )
        if values.shape[0] != self._num_links:
            raise IngestError(
                f"row has {values.shape[0]} links, expected "
                f"{self._num_links}",
                reason="wrong_width",
            )
        if not np.all(np.isfinite(values)):
            raise IngestError(
                "row contains NaN or infinite link counts",
                reason="non_finite",
            )
        if bin_id is not None:
            expected = self._stream_rows
            if bin_id < expected:
                raise IngestError(
                    f"bin {bin_id} was already ingested (next is "
                    f"{expected})",
                    reason="duplicate_bin",
                )
            if bin_id > expected:
                raise IngestError(
                    f"bin {bin_id} arrived out of order (next is "
                    f"{expected})",
                    reason="out_of_order_bin",
                )
        return values

    def ingest_row(self, row, bin_id: int | None = None) -> RowOutcome:
        """Validate, score, diagnose, and fold one arriving row.

        Raises :class:`~repro.exceptions.IngestError` on rejection — the
        error counter and event log are already updated when it leaves,
        and the service state is untouched (the stream position does not
        advance).  The latency histogram observes *every* row, accepted
        or rejected — rejections consume wall-clock too, and a flood of
        malformed traffic must not vanish from the latency telemetry.
        """
        begin = self._latency_clock()
        try:
            return self._ingest_row(row, bin_id)
        finally:
            self._h_latency.observe(self._latency_clock() - begin)

    def _ingest_row(self, row, bin_id: int | None = None) -> RowOutcome:
        with self._lock:
            try:
                values = self._validate_row(row, bin_id)
            except IngestError as err:
                self.record_error(err.reason, detail=str(err))
                raise
            version = self.lifecycle.current
            # One fused kernel pass scores the row and compares it to
            # the threshold (bit-identical to detector.spe + compare).
            scored = version.detector.model.score_block(
                values[None, :], threshold=float(version.threshold)
            )
            spe = float(scored.spe[0])
            flag = bool(scored.flags[0])
            outcome = RowOutcome(
                bin=self._stream_rows,
                spe=spe,
                threshold=float(version.threshold),
                flag=flag,
                model_version=version.version,
            )
            if flag and self._directions is not None:
                outcome = self._identify(outcome, values, version)
            self._stream_rows += 1
            self._m_rows.inc()
            self._g_spe.set(spe)
            if flag:
                self._m_alarms.inc()
                self.events.emit("alarm", **outcome.to_json())
            self._tracker.fold_block(values[None, :])
            self.lifecycle.append_rows(values[None, :])
            self._g_refresh_age.set(
                self.lifecycle.rows - version.trained_rows
            )
            due = (
                self.config.refit_interval is not None
                and self.lifecycle.rows - version.trained_rows
                >= self.config.refit_interval
            )
            if due and self.config.synchronous_refit:
                self._do_refit()
            checkpoint_due = (
                self.config.checkpoint_path is not None
                and self.config.checkpoint_interval is not None
                and self._stream_rows % self.config.checkpoint_interval == 0
            )
            if checkpoint_due:
                # Auto-checkpoints are fail-soft: a sick disk is counted
                # under ``checkpoint_failed`` and serving continues.
                try:
                    self.checkpoint()
                except ServiceError:
                    pass
        if due and not self.config.synchronous_refit:
            self.request_refit()
        return outcome

    def ingest_rows(
        self, rows, bins=None
    ) -> list[RowOutcome]:
        """Ingest a batch in order; stops at (and re-raises) the first
        rejection, leaving earlier rows ingested.

        Delegates to :meth:`ingest_block` — the outcomes (and every
        model swap boundary) are bit-identical to looping
        :meth:`ingest_row`, with the control-plane cost paid once per
        block instead of once per row.
        """
        result = self.ingest_block(rows, bins=bins)
        if result.rejected is not None:
            raise result.rejected
        return list(result.outcomes)

    # -- batched fast path ---------------------------------------------
    def ingest_block(self, rows, bins=None) -> BlockResult:
        """Validate, score, diagnose, and fold a block of rows at once.

        **Exact by construction.**  The accepted rows are scored through
        the same row-decomposable :meth:`~repro.core.subspace.\
SubspaceModel.score_block` kernel the per-row path runs — one call per
        contiguous run under one model version instead of one call per
        row — so every SPE, flag, and identification is bit-identical
        to ingesting the rows one at a time, including across
        synchronous hot-swap boundaries (the run splits exactly where a
        refit would fall due row-by-row).  Validation is vectorized
        (masks over the ``(n, m)`` block) but reproduces the per-row
        reject contract exactly: same reason, same message, same split
        index, and rejects never advance the stream.

        Unlike :meth:`ingest_rows` a rejection does not raise: the
        returned :class:`BlockResult` carries the accepted prefix plus
        the would-be :class:`~repro.exceptions.IngestError`, so
        transports can report both without re-scoring.  Accounting is
        amortized — one latency-histogram observation and one buffered
        event-log write per block (flushed on checkpoint and close);
        counter totals and final gauge values match the per-row path.
        Auto-checkpoints are evaluated once per block: crossing one or
        more ``checkpoint_interval`` multiples inside a block writes a
        single checkpoint at the block boundary.
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
                coerced = self._coerce_block(rows, bins)
                if coerced is None:
                    # Ragged / non-numeric payloads cannot be validated
                    # as one array; the per-row loop finds the exact
                    # split the contract promises.
                    return self._ingest_block_fallback(rows, bins)
                values, bins_arr = coerced
                if values.shape[0] == 0:
                    return BlockResult(outcomes=())
                before = self._stream_rows
                split, reject = self._validate_block(values, bins, bins_arr)
                outcomes = self._ingest_accepted(values[:split], pending)
                interval = self.config.checkpoint_interval
                checkpoint_due = (
                    self.config.checkpoint_path is not None
                    and interval is not None
                    and self._stream_rows // interval > before // interval
                )
                if checkpoint_due:
                    self._drain_events(pending)
                    # Fail-soft, like per-row auto-checkpoints.
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
                    outcomes=tuple(outcomes),
                    rejected=reject,
                    rejected_index=None if reject is None else split,
                )
            finally:
                self._drain_events(pending)
        if due_async:
            self.request_refit()
        return result

    def _coerce_block(self, rows, bins):
        """``(values, bins_array)`` for the vectorized path, else None."""
        try:
            values = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if values.ndim != 2:
            return None
        bins_arr = None
        if bins is not None:
            try:
                bins_arr = np.asarray(bins)
            except (TypeError, ValueError):
                return None
            if (
                bins_arr.ndim != 1
                or bins_arr.shape[0] != values.shape[0]
                or bins_arr.dtype.kind not in "iufb"
            ):
                return None
        return values, bins_arr

    def _validate_block(
        self, values: np.ndarray, bins, bins_arr
    ) -> tuple[int, IngestError | None]:
        """First-bad split of a rectangular block, per-row semantics.

        Returns ``(split, error)``: rows ``[:split]`` are exactly the
        rows a per-row loop would accept, and ``error`` (None when the
        whole block passes) is the :class:`IngestError` the loop would
        raise at row ``split`` — same reason, same message.
        """
        n = values.shape[0]
        if values.shape[1] != self._num_links:
            return 0, IngestError(
                f"row has {values.shape[1]} links, expected "
                f"{self._num_links}",
                reason="wrong_width",
            )
        finite = np.isfinite(values).all(axis=1)
        bad = ~finite
        if bins_arr is not None:
            expected = self._stream_rows + np.arange(n)
            # Mirror the per-row comparisons exactly: a NaN bin fails
            # both orderings and is therefore *accepted*, as it is by
            # ``_validate_row``.
            bad |= (bins_arr < expected) | (bins_arr > expected)
        if not bad.any():
            return n, None
        split = int(np.argmax(bad))
        if not finite[split]:
            return split, IngestError(
                "row contains NaN or infinite link counts",
                reason="non_finite",
            )
        expected_bin = self._stream_rows + split
        bin_value = bins[split]
        if bin_value < expected_bin:
            return split, IngestError(
                f"bin {bin_value} was already ingested (next is "
                f"{expected_bin})",
                reason="duplicate_bin",
            )
        return split, IngestError(
            f"bin {bin_value} arrived out of order (next is "
            f"{expected_bin})",
            reason="out_of_order_bin",
        )

    def _ingest_accepted(
        self, accepted: np.ndarray, pending: list
    ) -> list[RowOutcome]:
        """Score and fold an accepted run, splitting at refit boundaries.

        Each sub-run is every row up to the next synchronous-refit due
        point: one fused ``score_block`` call, one suffstats fold, one
        tracker fold — then the refit (if due) swaps the version exactly
        where the per-row loop would have swapped it.  Flagged rows are
        identified one at a time with the same single-row call the
        per-row path makes, so identification stays bitwise identical
        (BLAS matmuls are not row-decomposable; alarms are rare enough
        that this costs nothing measurable).
        """
        outcomes: list[RowOutcome] = []
        position = 0
        total = accepted.shape[0]
        while position < total:
            version = self.lifecycle.current
            take = total - position
            synchronous = (
                self.config.synchronous_refit
                and self.config.refit_interval is not None
            )
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
            for i in range(take):
                flag = bool(scored.flags[i])
                outcome = RowOutcome(
                    bin=start_bin + i,
                    spe=float(scored.spe[i]),
                    threshold=threshold,
                    flag=flag,
                    model_version=version.version,
                )
                if flag:
                    if self._directions is not None:
                        outcome = self._identify(outcome, chunk[i], version)
                    pending.append(("alarm", outcome.to_json()))
                outcomes.append(outcome)
            flagged = int(np.count_nonzero(scored.flags))
            self._stream_rows += take
            self._m_rows.inc(float(take))
            self._g_spe.set(float(scored.spe[take - 1]))
            if flagged:
                self._m_alarms.inc(float(flagged))
            self._tracker.fold_block(chunk)
            self.lifecycle.append_rows(chunk)
            self._g_refresh_age.set(
                self.lifecycle.rows - version.trained_rows
            )
            position += take
            due = (
                self.config.refit_interval is not None
                and self.lifecycle.rows - version.trained_rows
                >= self.config.refit_interval
            )
            if due and synchronous:
                self._drain_events(pending)
                self._do_refit()
        return outcomes

    def _ingest_block_fallback(self, rows, bins) -> BlockResult:
        """Per-row loop for payloads the array path cannot represent."""
        outcomes: list[RowOutcome] = []
        for index, row in enumerate(rows):
            bin_id = None if bins is None else bins[index]
            try:
                outcomes.append(self._ingest_row(row, bin_id))
            except IngestError as err:
                return BlockResult(
                    outcomes=tuple(outcomes),
                    rejected=err,
                    rejected_index=index,
                )
        return BlockResult(outcomes=tuple(outcomes))

    def _drain_events(self, pending: list) -> None:
        if pending:
            self.events.emit_many(list(pending))
            pending.clear()

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
            detector, trained_rows = self.lifecycle.fit_candidate()
            version = self.lifecycle.activate(detector, trained_rows)
        except Exception as err:
            with self._lock:
                self._last_refit_error = str(err)
            self._m_refit_failures.inc()
            self.record_error("refit_failed", detail=str(err))
            self.events.emit("refit_failed", error=str(err))
            raise ServiceError(f"refit failed: {err}") from err
        with self._lock:
            self._seed_tracker(version)
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
