"""The always-on detection engine (transport-agnostic core).

:class:`DetectionService` is everything the daemon does minus the HTTP:
validate one arriving row, score it against the *pinned active model
version*, identify/quantify it when flagged, append it to the history
the refits fit from, and keep every step observable through Prometheus
metrics and the JSONL event log.  The HTTP layer
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

Drift telemetry is deliberately *not* on the scoring path: two gauges,
computed from the last complete history tile (1,024 rows, about a week
of 10-minute bins; the paper finds the subspace stable week to week,
§7.1) and the active version, tell operators when the refit cadence is
too slow.  Ingest does no drift work: the history append computes each
tile's statistics, and :meth:`DetectionService._refresh_model_gauges`
solves a tile once and reruns the Q-limit and principal angles only
when the tile or the version changed.
"""

from __future__ import annotations

import numbers
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.identification import IdentificationState

# perfbench's layer table times ``identify_block`` in this module; the
# name stays bound here until that table follows IdentificationState.
from repro.core.identification import identify_block  # noqa: F401
from repro.core.incremental import covariance_spectrum, principal_angles
from repro.core.qstatistic import q_threshold
from repro.core.subspace import ScoreBlockResult
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
    max_normal_rank, dtype:
        Fit settings of a lifecycle bootstrapped by
        :meth:`DetectionService.from_warmup`; a service restored from a
        checkpoint takes them from the checkpoint instead.  ``dtype`` is
        the scoring precision, ``"float64"`` (default) or ``"float32"``:
        fits always run in float64, and float32 SPE error is bounded by
        :func:`~repro.core.subspace.float32_spe_band`.
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
    """

    confidence: float = 0.999
    threshold_sigma: float = 3.0
    normal_rank: int | None = None
    min_normal_rank: int = 1
    max_normal_rank: int | None = None
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

    def fit_config(self) -> dict:
        """The fit knobs of :func:`~repro.service.lifecycle.fit_history`
        and :class:`~repro.service.lifecycle.ModelLifecycleManager`."""
        return {
            "confidence": self.confidence,
            "threshold_sigma": self.threshold_sigma,
            "normal_rank": self.normal_rank,
            "min_normal_rank": self.min_normal_rank,
            "max_normal_rank": self.max_normal_rank,
            "dtype": np.dtype(self.dtype),
        }


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
    are the fused kernel's arrays.  When the service has a routing
    matrix and the version can see a flow, the flagged rows are
    identified: ``flow_indices``, ``magnitudes`` and ``estimated_bytes``
    hold one entry per flagged row, in bin order, and ``od_pairs`` is
    the label tuple ``flow_indices`` index.  Otherwise the three arrays
    are None, as they are for a segment without alarms.
    """

    start_bin: int
    spe: np.ndarray
    flags: np.ndarray
    threshold: float
    model_version: int
    flow_indices: np.ndarray | None = None
    magnitudes: np.ndarray | None = None
    estimated_bytes: np.ndarray | None = None
    od_pairs: tuple[tuple[str, str], ...] = ()

    @property
    def num_alarms(self) -> int:
        """Rows of the segment whose SPE exceeded the threshold."""
        return int(np.count_nonzero(self.flags))

    def outcomes(self) -> list[RowOutcome]:
        """The segment's rows as :class:`RowOutcome` objects, in order."""
        start, threshold, version = (
            self.start_bin,
            self.threshold,
            self.model_version,
        )
        spe = self.spe.tolist()
        outcomes = [
            RowOutcome(start + offset, value, threshold, flag, version)
            for offset, (value, flag) in enumerate(zip(spe, self.flags.tolist()))
        ]
        if self.flow_indices is not None:
            for offset, flow, magnitude, size in zip(
                np.flatnonzero(self.flags).tolist(),
                self.flow_indices.tolist(),
                self.magnitudes.tolist(),
                self.estimated_bytes.tolist(),
            ):
                outcomes[offset] = RowOutcome(
                    start + offset,
                    spe[offset],
                    threshold,
                    True,
                    version,
                    flow_index=flow,
                    od_pair=self.od_pairs[flow],
                    magnitude=magnitude,
                    estimated_bytes=size,
                )
        return outcomes


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
        return sum(segment.num_alarms for segment in self.segments)

    @cached_property
    def outcomes(self) -> tuple[RowOutcome, ...]:
        """Every accepted row's :class:`RowOutcome`, in bin order."""
        outcomes: list[RowOutcome] = []
        for segment in self.segments:
            outcomes.extend(segment.outcomes())
        return tuple(outcomes)


class DetectionService:
    """Score → diagnose → append → account, for every arriving row.

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
        # A restored lifecycle carries the stream position it was
        # checkpointed at; a fresh one holds only its warmup rows.
        extra = lifecycle.restored_extra
        self._warmup_rows = int(extra.get("warmup_rows", lifecycle.rows))
        self._stream_rows = int(extra.get("stream_rows", 0))
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
        # (version, its identification state or None when its alarms
        # cannot name a flow): built once per version by
        # _identification_state, dropped by each refit's swap.
        self._identification: tuple[
            ModelVersion | None, IdentificationState | None
        ] = (None, None)
        self._refit_thread: threading.Thread | None = None
        self._last_refit_error: str | None = None
        # History row at which the last refit attempt failed; automatic
        # refits fall due ``refit_interval`` rows after the later of it
        # and the active version's training.
        self._failed_refit_row = 0
        # (first row, eigenvalues, eigenvectors) of the last tile solved,
        # and the (tile, version) the drift gauges were computed for.
        self._spectrum: tuple[int, np.ndarray, np.ndarray] | None = None
        self._drift_key: tuple[int | None, int] | None = None
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
        exposes the same drift gauges and version history, and resumes
        at the same stream position — its next assigned bin continues
        where the checkpointing process stopped.  The fit settings
        (confidence, σ, rank clamps, dtype) come from the checkpoint;
        ``config`` supplies only the serving settings.  Unreadable or
        torn files raise :class:`~repro.exceptions.CheckpointError`.
        """
        lifecycle = ModelLifecycleManager.restore(path)
        lifecycle.refit_hook = refit_hook
        return cls(
            lifecycle,
            routing=routing,
            config=config,
            event_log=event_log,
            latency_clock=latency_clock,
        )

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
            refit_hook=refit_hook, **config.fit_config()
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
            "Q-limit of the last complete history tile's residual "
            "spectrum at the active version's rank; the version's own "
            "threshold before the first tile completes.",
        )
        self._g_drift = registry.gauge(
            "repro_tracker_drift_radians",
            "Largest principal angle between the last complete history "
            "tile's top axes and the active normal subspace; 0 before "
            "the first tile completes.",
        )
        self._h_latency = registry.histogram(
            "repro_ingest_latency_seconds",
            "Wall-clock seconds spent handling one ingest call (a row "
            "or a block), accepted or rejected.",
        )

    def _refresh_model_gauges(self) -> None:
        """Set every model gauge; the only place drift gauges are set.

        With ``r`` the active version's rank, the tile's covariance
        ``m2 / (count − 1)`` (the fit's normalisation) is solved once
        per tile; the threshold gauge is the Q-limit of its eigenvalues
        past ``r``, and the drift gauge the largest principal angle
        between its top ``r`` axes and the version's.  Both rerun only
        when the tile or the version changed since the last call.
        Before the first tile completes they read the version's own
        threshold and 0.
        """
        version = self.lifecycle.current
        self._g_threshold.set(version.threshold)
        self._g_rank.set(version.normal_rank)
        self._g_version.set(version.version)
        self._g_refresh_age.set(self.lifecycle.rows - version.trained_rows)
        tile = self.lifecycle.last_tile_stats()
        key = (None if tile is None else tile.start_row, version.version)
        if key == self._drift_key:
            return
        if tile is None:
            threshold, drift = version.threshold, 0.0
        else:
            if self._spectrum is None or self._spectrum[0] != tile.start_row:
                self._spectrum = (
                    tile.start_row,
                    *covariance_spectrum(tile.covariance()),
                )
            _, eigenvalues, axes = self._spectrum
            rank = version.normal_rank
            threshold = q_threshold(
                eigenvalues[rank:], confidence=self.lifecycle.confidence
            )
            angles = principal_angles(
                axes[:, :rank], version.detector.model.pca.components[:, :rank]
            )
            drift = float(angles.max()) if angles.size else 0.0
        self._g_tracker_threshold.set(threshold)
        self._g_drift.set(drift)
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

    def ingest_row(self, row, bin_id: int | None = None) -> RowOutcome:
        """Validate, score, diagnose, and append one arriving row.

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
        """Validate, score, diagnose, and append a block of rows at once.

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
                due_async = (
                    self.config.refit_interval is not None
                    and not self.config.synchronous_refit
                    and self._rows_since_refit() >= self.config.refit_interval
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
        """Score and append an accepted run, splitting at refit boundaries.

        Each sub-run is every row up to the next synchronous-refit due
        point: one fused ``score_block`` call, one history append, then
        the refit if one is due, which swaps the version exactly where
        a row-by-row replay would have swapped it.  A refit that fails is counted and logged by :meth:`_do_refit`;
        the active version keeps scoring and the next attempt falls due
        ``refit_interval`` rows later, so every accepted row still gets
        its outcome.  Each sub-run becomes one :class:`BlockSegment`
        holding the kernel's arrays and, for its flagged rows, the
        identification arrays (see :meth:`_segment`).
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
                until_due = self.config.refit_interval - self._rows_since_refit()
                take = min(take, max(1, until_due))
            chunk = accepted[position : position + take]
            threshold = float(version.threshold)
            scored = version.detector.model.score_block(
                chunk, threshold=threshold
            )
            segment = self._segment(version, chunk, scored, threshold, pending)
            segments.append(segment)
            self._stream_rows += take
            self._m_rows.inc(float(take))
            self._g_spe.set(float(scored.spe[take - 1]))
            alarms = segment.num_alarms
            if alarms:
                self._m_alarms.inc(float(alarms))
            self.lifecycle.append_rows(chunk)
            position += take
            if synchronous and (
                self._rows_since_refit() >= self.config.refit_interval
            ):
                self._drain_events(pending)
                try:
                    self._do_refit()
                except ServiceError:
                    pass  # counted and logged; the active version serves
        return tuple(segments)

    def _segment(
        self,
        version: ModelVersion,
        chunk: np.ndarray,
        scored: ScoreBlockResult,
        threshold: float,
        pending: list,
    ) -> BlockSegment:
        """A scored sub-run as a segment; queues one event per alarm.

        Flagged rows are identified through the version's
        :class:`~repro.core.identification.IdentificationState`, each
        with one-row products
        (:meth:`~repro.core.identification.IdentificationState.identify_each`),
        so an alarm's flow does not depend on the request that carried
        it.  The segment's identification arrays and the alarm events
        are built from the identification's arrays, with no per-row
        object in between.
        """
        start = self._stream_rows
        segment = BlockSegment(
            start, scored.spe, scored.flags, threshold, version.version
        )
        offsets = np.flatnonzero(scored.flags)
        if not offsets.size:
            return segment
        fields = {
            "threshold": threshold,
            "flag": True,
            "model_version": version.version,
        }
        rows = zip(offsets.tolist(), scored.spe[offsets].tolist())
        state = self._identification_state(version)
        if state is None:
            pending.extend(
                ("alarm", {"bin": start + offset, "spe": spe, **fields})
                for offset, spe in rows
            )
            return segment
        found = state.identify_each(chunk[offsets])
        flows = found.flow_indices
        estimated = found.magnitudes * self._quant_ratio[flows]
        pending.extend(
            (
                "alarm",
                {
                    "bin": start + offset,
                    "spe": spe,
                    **fields,
                    "flow_index": flow,
                    "od_pair": list(state.od_pairs[flow]),
                    "magnitude": magnitude,
                    "estimated_bytes": size,
                },
            )
            for (offset, spe), flow, magnitude, size in zip(
                rows,
                flows.tolist(),
                found.magnitudes.tolist(),
                estimated.tolist(),
            )
        )
        return replace(
            segment,
            flow_indices=flows,
            magnitudes=found.magnitudes,
            estimated_bytes=estimated,
            od_pairs=state.od_pairs,
        )

    def _rows_since_refit(self) -> int:
        """History rows since the last refit attempt: the active
        version's training, or a failed refit after it."""
        version = self.lifecycle.current
        return self.lifecycle.rows - max(
            version.trained_rows, self._failed_refit_row
        )

    def _drain_events(self, pending: list) -> None:
        if pending:
            self.events.emit_many(list(pending))
            pending.clear()

    def _identification_state(
        self, version: ModelVersion
    ) -> IdentificationState | None:
        """The version's identification state; None when its alarms
        cannot name a flow.

        Needs a routing matrix and a flow visible in the version's
        residual subspace.  Built on the version's first alarm and kept
        while the version serves, so a version that never alarms (a
        refit probe, a quiet week) never pays for it.  An alarm no flow
        can explain is served and logged without identification fields,
        as without a routing matrix.
        """
        if self._directions is None:
            return None
        if self._identification[0] is not version:
            state = IdentificationState(
                version.detector.model,
                self._directions,
                self._routing.od_pairs,
            )
            self._identification = (version, state if state.visible else None)
        return self._identification[1]

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
            # A background refit fits outside the engine lock, so ingest
            # keeps flowing; refit() and synchronous refits hold it.
            detector, trained_rows = self.lifecycle.fit_candidate()
        except Exception as err:
            with self._lock:
                self._last_refit_error = str(err)
                self._failed_refit_row = self.lifecycle.rows
            self._m_refit_failures.inc()
            self.record_error("refit_failed", detail=str(err))
            self.events.emit("refit_failed", error=str(err))
            raise ServiceError(f"refit failed: {err}") from err
        with self._lock:
            # Between two blocks, so the boundary is where scoring moved.
            version = self.lifecycle.activate(detector, trained_rows)
            # Release the retired version's model with its state.
            self._identification = (None, None)
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
        history = self.lifecycle.version_summaries()
        return {
            "current": history[-1],
            "history": history,
            "dtype": self.lifecycle.dtype.name,
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
