"""The sharded detection plane: coordinator/worker fit fan-out.

The paper's method is network-wide — one subspace model over all link
measurements — but nothing about *fitting* it requires one process to
hold the whole ``(t, m)`` matrix.  This module decomposes the fit along
both axes of the matrix:

**Temporal sharding** (:class:`TemporalCoordinator`) partitions the
*rows* (time bins).  Workers compute mergeable sufficient statistics
(:mod:`repro.core.suffstats`) over their chunks — reading the traffic
matrix from :mod:`multiprocessing.shared_memory`, never pickling it —
and the coordinator merges the statistics and fits **once**.  Because
the statistics merge exactly (canonical tiles; see the suffstats module
docs), the fitted PCA is *bit-identical* to the monolithic
``PCA(method="gram")`` fit for any shard layout, worker count, or merge
order.  The 3σ separation runs as a second distributed pass on the same
canonical tiles: one :func:`~repro.core.subspace.score_moments` call per
tile, folded in ascending tile order, so it too is bit-identical to the
monolithic fit on every route.  The same machinery drives
:meth:`TemporalCoordinator.fit_stream`, an out-of-core fit over a chunk
iterator for matrices that never fully materialize.

**Spatial sharding** (:class:`SpatialCoordinator`) partitions the
*columns* (links) into zones.  Each zone fits its own local subspace
detector — an ``O(t·(m/z)²)`` problem instead of ``O(t·m²)`` — and a
pluggable **alarm-fusion stage** combines the per-zone alarms into a
network-wide decision:

``union``
    Alarm when any zone's SPE clears its own Q-statistic limit.  Fused
    score: ``max_z SPE_z / δ_z``.
``vote``
    Alarm when at least ``votes`` zones clear their limits (k-of-n).
    Fused score: the ``votes``-th largest ``SPE_z / δ_z`` ratio.
``rescore``
    Global-residual rescore: the total residual energy ``Σ_z SPE_z``
    against the Jackson–Mudholkar limit of the pooled residual spectrum
    (exactly the global Q-statistic if the link covariance were
    block-diagonal by zone).

Spatial sharding is an approximation — zone models cannot see
cross-zone correlations — so it is evaluated head-to-head against the
monolithic detector over the scenario suite
(:mod:`repro.scenarios.fusion`) rather than claimed exact.

Both coordinators emit a :class:`ShardReport` with per-worker timing
breakdowns (stats / merge / separation / fuse seconds);
``to_json(include_timings=False)`` drops every wall-clock field and is
byte-stable across worker layouts, the same contract
:class:`~repro.pipeline.compare.ComparisonReport` keeps for goldens.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro._util import atomic_pickle_dump, ensure_matrix
from repro.core.detection import SPEDetector
from repro.core.pca import PCA
from repro.core.qstatistic import q_threshold
from repro.core.subspace import (
    ScoreMoments,
    SeparationResult,
    SubspaceModel,
    fold_moments,
    score_moments,
    separate_axes_from_moments,
)
from repro.core.suffstats import (
    DEFAULT_TILE_ROWS,
    SufficientStats,
    canonical_units,
)
from repro.exceptions import (
    CheckpointError,
    ModelError,
    ReproError,
    SupervisionError,
    ValidationError,
)
from repro.pipeline.shm import SharedArray, attach_array, release, share_array
from repro.pipeline.supervision import (
    FAULT_POLICIES,
    FaultReport,
    PoolRun,
    SupervisedPool,
    TaskFault,
    backoff_delay,
    raise_if_lost,
    resolve_policy,
)

__all__ = [
    "FAULT_POLICIES",
    "FUSION_MODES",
    "SHARD_SCHEMA_VERSION",
    "STREAM_CHECKPOINT_SCHEMA_VERSION",
    "ShardReport",
    "SpatialCoordinator",
    "SpatialShardedModel",
    "TemporalCoordinator",
    "TemporalShardFit",
    "SpatialShardFit",
    "WorkerTiming",
    "partition_links",
    "temporal_fit_matches_monolithic",
]

#: Version of the :meth:`ShardReport.to_json` payload layout.  Bump on
#: any structural change.
SHARD_SCHEMA_VERSION = 1

#: Version of the :meth:`TemporalCoordinator.fit_stream` checkpoint
#: payload.  Bump on any shape change.
STREAM_CHECKPOINT_SCHEMA_VERSION = 1

#: The pluggable alarm-fusion stages of the spatial plane.
FUSION_MODES = ("union", "vote", "rescore")


# ----------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class WorkerTiming:
    """Wall-clock breakdown of one worker's share of a sharded fit.

    For temporal shards ``size`` is the chunk's row count and
    ``stats_seconds`` / ``moments_seconds`` time the two distributed
    passes; for spatial zones ``size`` is the zone's link count and
    ``stats_seconds`` is the zone fit.
    """

    worker: int
    start: int
    size: int
    stats_seconds: float
    moments_seconds: float = 0.0


@dataclass(frozen=True)
class ShardReport:
    """Structured outcome of one sharded fit (both modes).

    ``to_json(include_timings=False)`` is byte-stable across worker
    layouts: every wall-clock field is dropped and the remaining payload
    is a pure function of the inputs.  ``coverage`` is the fraction of
    the input (rows for temporal, links for spatial) the fitted model
    actually saw — 1.0 except under the ``partial`` fault policy with
    permanently lost work; ``fault`` is the task runs'
    :class:`~repro.pipeline.supervision.FaultReport` (clean on the
    in-process path, ``None`` where no fault accounting ran, and
    omitted from the JSON payload when clean so fault-free payloads
    stay byte-stable across layouts).
    """

    mode: str  # "temporal" | "spatial"
    num_shards: int
    workers: int
    num_rows: int
    num_links: int
    confidence: float
    normal_rank: int | tuple[int, ...]
    threshold: float | tuple[float, ...]
    tile_rows: int | None = None
    fusion_thresholds: dict[str, float] = field(default_factory=dict)
    coverage: float = 1.0
    fault: FaultReport | None = None
    merge_seconds: float = 0.0
    fit_seconds: float = 0.0
    separation_seconds: float = 0.0
    fuse_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    worker_timings: tuple[WorkerTiming, ...] = ()

    def to_json(self, include_timings: bool = True) -> dict:
        """The machine-readable payload (``BENCH_*.json`` shape)."""
        rank = self.normal_rank
        threshold = self.threshold
        payload = {
            "schema_version": SHARD_SCHEMA_VERSION,
            "mode": self.mode,
            "grid": {
                "num_shards": self.num_shards,
                "num_rows": self.num_rows,
                "num_links": self.num_links,
                "tile_rows": self.tile_rows,
            },
            "model": {
                "confidence": self.confidence,
                "coverage": self.coverage,
                "normal_rank": (
                    list(rank) if isinstance(rank, tuple) else rank
                ),
                "threshold": (
                    list(threshold)
                    if isinstance(threshold, tuple)
                    else threshold
                ),
            },
        }
        if self.fusion_thresholds:
            payload["fusion_thresholds"] = dict(
                sorted(self.fusion_thresholds.items())
            )
        if self.fault is not None and not self.fault.clean:
            payload["fault"] = self.fault.to_json()
        if include_timings:
            payload["workers"] = self.workers
            payload["elapsed_seconds"] = self.elapsed_seconds
            payload["merge_seconds"] = self.merge_seconds
            payload["fit_seconds"] = self.fit_seconds
            payload["separation_seconds"] = self.separation_seconds
            payload["fuse_seconds"] = self.fuse_seconds
            payload["worker_timings"] = [
                {
                    "worker": timing.worker,
                    "start": timing.start,
                    "size": timing.size,
                    "stats_seconds": timing.stats_seconds,
                    "moments_seconds": timing.moments_seconds,
                }
                for timing in self.worker_timings
            ]
        return payload


# ----------------------------------------------------------------------
# Temporal sharding.


@dataclass(frozen=True)
class TemporalShardFit:
    """A model fitted from merged per-chunk sufficient statistics."""

    detector: SPEDetector
    separation: SeparationResult | None
    report: ShardReport

    @property
    def pca(self) -> PCA:
        """The fitted PCA (bit-identical to the monolithic gram fit)."""
        return self.detector.model.pca

    @property
    def model(self) -> SubspaceModel:
        """The fitted subspace model."""
        return self.detector.model


@dataclass(frozen=True)
class _StatsTask:
    traffic: "np.ndarray | SharedArray | None"  # see _resolve_traffic
    start: int
    stop: int


@dataclass(frozen=True)
class _MomentsTask:
    traffic: "np.ndarray | SharedArray | None"
    units: tuple[tuple[int, int], ...]
    mean: np.ndarray
    components: np.ndarray


#: Fork-start pools inherit the parent's address space copy-on-write,
#: so the traffic matrix can travel to the workers through this module
#: global with zero copies and zero serialization — the parent parks it
#: here immediately before creating the pool (children snapshot it at
#: fork) and clears it afterwards.  Non-fork start methods fall back to
#: an explicit shared-memory segment.
_INHERITED_TRAFFIC: np.ndarray | None = None


def _resolve_traffic(ref: "np.ndarray | SharedArray | None") -> np.ndarray:
    """The matrix a task reads: its own (in-process), a shared-memory
    segment, or the fork-inherited matrix (``None``)."""
    if isinstance(ref, np.ndarray):
        return ref
    if ref is not None:
        return attach_array(ref)
    if _INHERITED_TRAFFIC is None:  # pragma: no cover - defensive
        raise ModelError(
            "worker has no inherited traffic matrix; the pool was not "
            "fork-started"
        )
    return _INHERITED_TRAFFIC


def _worker_count(requested: int | None, tasks: int) -> int:
    """The request (default: one per CPU), at most one worker per task."""
    import os

    return min(tasks, requested or os.cpu_count() or 1)


def _fork_start() -> bool:
    import multiprocessing

    return multiprocessing.get_start_method() == "fork"


@contextmanager
def _task_runner(
    coordinator, measurements: np.ndarray, workers: int
) -> Iterator[tuple[object, Callable[..., PoolRun]]]:
    """``(traffic, run)`` for fanning tasks out over ``measurements``.

    One worker runs the tasks in-process on the matrix itself.  More
    start a :class:`SupervisedPool` under the coordinator's fault knobs,
    whose workers read the matrix without a copy: fork-inherited
    (``traffic`` is ``None``) or from a shared-memory segment.
    ``run(fn, tasks, stage)`` returns a :class:`PoolRun`.
    """
    global _INHERITED_TRAFFIC

    if workers <= 1:

        def run_here(fn, tasks, stage):
            return PoolRun(
                results=[fn(task) for task in tasks],
                report=FaultReport(tasks=len(tasks), attempts=len(tasks)),
            )

        yield measurements, run_here
        return
    segments: list = []
    try:
        if _fork_start():
            traffic = None
            _INHERITED_TRAFFIC = measurements
        else:  # pragma: no cover - non-fork platforms
            traffic = share_array(measurements, segments)
        with SupervisedPool(
            workers,
            deadline=coordinator.task_deadline,
            max_retries=(
                0
                if coordinator.fault_policy == "fail-fast"
                else coordinator.max_retries
            ),
            backoff_base=coordinator.backoff_base,
            fault_plan=coordinator.fault_plan,
        ) as pool:
            yield traffic, pool.run
    finally:
        _INHERITED_TRAFFIC = None
        release(segments)


def _run_stats_task(task: _StatsTask) -> tuple[SufficientStats, float]:
    """Pass-1 kernel: sufficient statistics of one time chunk."""
    begin = time.perf_counter()
    traffic = _resolve_traffic(task.traffic)
    stats = SufficientStats.from_block(
        traffic[task.start : task.stop], start_row=task.start
    )
    return stats, time.perf_counter() - begin


def _run_moments_task(
    task: _MomentsTask,
) -> tuple[list[ScoreMoments], float]:
    """Pass-2 kernel: one :func:`score_moments` call per canonical unit."""
    begin = time.perf_counter()
    traffic = _resolve_traffic(task.traffic)
    parts = [
        score_moments(traffic[lo:hi], task.mean, task.components)
        for lo, hi in task.units
    ]
    return parts, time.perf_counter() - begin


def _shard_bounds(num_rows: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal row ranges, one per shard."""
    edges = np.linspace(0, num_rows, num_shards + 1).astype(int)
    return [
        (int(a), int(b)) for a, b in zip(edges, edges[1:]) if b > a
    ]


class _CoverageLedger:
    """Disjoint, sorted covered intervals of absolute row indices.

    The exactly-once accounting behind the resilient
    :meth:`TemporalCoordinator.fit_stream`: every incoming chunk is
    sliced to its *uncovered* sub-intervals before folding, which makes
    duplicated, re-delivered (retry), and out-of-order chunks all fold
    each row exactly once — and therefore bit-identically to a clean
    sequential pass, by the order-invariance of the statistics merge.
    """

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._intervals: list[list[int]] = []
        for start, stop in intervals:
            self.add(int(start), int(stop))

    def add(self, start: int, stop: int) -> None:
        """Mark ``[start, stop)`` covered (merging neighbors)."""
        if stop <= start:
            return
        merged: list[list[int]] = []
        placed = False
        for a, b in self._intervals:
            if b < start or a > stop:
                if not placed and a > stop:
                    merged.append([start, stop])
                    placed = True
                merged.append([a, b])
            else:
                start, stop = min(a, start), max(b, stop)
        if not placed:
            merged.append([start, stop])
            merged.sort()
        self._intervals = merged

    def uncovered(self, start: int, stop: int) -> list[tuple[int, int]]:
        """Sub-intervals of ``[start, stop)`` not yet covered."""
        out: list[tuple[int, int]] = []
        cursor = start
        for a, b in self._intervals:
            if b <= cursor:
                continue
            if a >= stop:
                break
            if a > cursor:
                out.append((cursor, min(a, stop)))
            cursor = max(cursor, b)
            if cursor >= stop:
                break
        if cursor < stop:
            out.append((cursor, stop))
        return out

    @property
    def covered_rows(self) -> int:
        return sum(b - a for a, b in self._intervals)

    @property
    def max_stop(self) -> int:
        return self._intervals[-1][1] if self._intervals else 0

    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(a), int(b)) for a, b in self._intervals)


class _UnitReplay:
    """The separation pass of a replayed source, one canonical unit at a time.

    Incoming rows are stitched into the canonical units of pass 1's
    coverage; a unit is scored by :func:`score_moments` once all of its
    rows have arrived — straight from the chunk when one chunk holds the
    whole unit, else from a buffer the pieces are copied into.  Rows
    already received are skipped, so duplicated, re-delivered and
    out-of-order chunks score each unit exactly once, from the same
    contiguous rows an in-memory fit reads.  A sequential source keeps
    at most one unit open.
    """

    def __init__(
        self,
        units: list[tuple[int, int]],
        mean: np.ndarray,
        components: np.ndarray,
    ) -> None:
        self._units = units
        self._starts = [lo for lo, _ in units]
        self._mean = mean
        self._components = components
        self._received = _CoverageLedger()
        self._buffers: dict[int, np.ndarray] = {}
        self._done: dict[int, ScoreMoments] = {}
        self._pass_rows = self._pass_strays = 0

    def add(self, start: int, chunk: np.ndarray) -> None:
        """Take one replayed chunk; rows outside pass 1's coverage are
        counted as strays."""
        # Checked here, not only by the kernel: a narrower chunk would
        # broadcast into a unit buffer.
        width = self._components.shape[0]
        if chunk.shape[1] != width:
            raise ModelError(
                f"replayed chunk has {chunk.shape[1]} links, the fitted "
                f"model covers {width}"
            )
        stop = start + chunk.shape[0]
        self._pass_rows += chunk.shape[0]
        self._pass_strays += chunk.shape[0]
        first = max(0, bisect_right(self._starts, start) - 1)
        for index in range(first, bisect_left(self._starts, stop)):
            lo, hi = self._units[index]
            a, b = max(lo, start), min(hi, stop)
            if a >= b:
                continue
            self._pass_strays -= b - a
            missing = self._received.uncovered(a, b)
            if not missing:
                continue  # a duplicate: these rows were received before
            if (a, b) == (lo, hi):
                rows = chunk[a - start : b - start]
            else:
                rows = self._buffers.setdefault(
                    index, np.empty((hi - lo, width))
                )
                for x, y in missing:
                    rows[x - lo : y - lo] = chunk[x - start : y - start]
            for x, y in missing:
                self._received.add(x, y)
            if not self._received.uncovered(lo, hi):
                self._done[index] = score_moments(
                    rows, self._mean, self._components
                )
                self._buffers.pop(index, None)

    def end_pass(self) -> str | None:
        """Close one pass: ``None`` when every unit is scored and no row
        strayed, else what went wrong.  Resets the per-pass counts."""
        rows, strays = self._pass_rows, self._pass_strays
        self._pass_rows = self._pass_strays = 0
        if strays == 0 and len(self._done) == len(self._units):
            return None
        return (
            f"saw {rows} rows ({strays} outside the statistics), the "
            f"moments cover {self._received.covered_rows} of "
            f"{sum(hi - lo for lo, hi in self._units)}"
        )

    def moments(self) -> list[ScoreMoments]:
        """Moments of the completed units, in ascending row order."""
        return [self._done[index] for index in sorted(self._done)]


def _stream_item(item, position: int) -> tuple[int, np.ndarray]:
    """Decode one chunk-source item into ``(start_row, chunk)``.

    Plain array chunks are sequential (the classic protocol): their
    start row is the running position.  ``(start_row, chunk)`` tuples
    are the resilient indexed protocol, required for sources that may
    deliver chunks late, twice, or out of order.
    """
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and np.isscalar(item[0])
    ):
        start = int(item[0])
        if start < 0:
            raise ModelError(f"chunk start_row must be >= 0, got {start}")
        chunk = item[1]
    else:
        start = position
        chunk = item
    chunk = ensure_matrix(
        chunk, name="chunk", error=ModelError, check_finite=False
    )
    return start, chunk


class TemporalCoordinator:
    """Fit the subspace model from per-time-chunk statistics.

    Parameters
    ----------
    num_shards:
        Time chunks the matrix is partitioned into.
    workers:
        Worker processes; ``None`` uses one per shard (capped at the CPU
        count), ``1`` runs the same kernels serially in-process.  The
        fitted model is bit-identical under every setting — only the
        timings move.
    confidence, threshold_sigma, normal_rank, min_normal_rank,
    max_normal_rank:
        Model parameters, as for
        :class:`~repro.core.detection.SPEDetector`.  With
        ``normal_rank=None`` the 3σ separation runs as a second
        distributed pass, one score-moments call per canonical tile
        (:data:`~repro.core.suffstats.DEFAULT_TILE_ROWS` rows, on every
        route).
    dtype:
        Scoring precision of the packaged detector (``"float64"``
        default, or ``"float32"``).  The fit itself — statistics,
        eigendecomposition, separation, threshold — always runs in
        float64.
    fault_policy:
        Degraded-mode policy of the parallel/streaming fit paths (see
        :data:`~repro.pipeline.supervision.FAULT_POLICIES`):
        ``"fail-fast"`` (default — no retries, any lost work aborts),
        ``"retry"`` (bounded retries; a retried-to-success run is
        bit-identical to the fault-free run), or ``"partial"`` (retries
        then fits from the surviving statistics, recording the
        ``coverage`` fraction in the report).
    task_deadline:
        Per-task wall-clock budget in seconds for the supervised
        workers; ``None`` disables deadlines.
    max_retries, backoff_base:
        Retry budget and first retry delay of the supervised pool (and
        of streaming-source retries in :meth:`fit_stream`); delays
        double per attempt up to
        :data:`~repro.pipeline.supervision.BACKOFF_MAX_SECONDS`, with
        jitter drawn from fixed seeds.
    fault_plan:
        Optional :class:`~repro.pipeline.faults.FaultPlan` injected
        into every worker — the chaos/robustness suites' hook.
    """

    def __init__(
        self,
        num_shards: int = 4,
        workers: int | None = None,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        min_normal_rank: int = 1,
        max_normal_rank: int | None = None,
        dtype: np.dtype | type | str = np.float64,
        fault_policy: str = "fail-fast",
        task_deadline: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        fault_plan=None,
    ) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.num_shards = int(num_shards)
        self.workers = workers
        self.confidence = confidence
        self.threshold_sigma = threshold_sigma
        self.normal_rank = normal_rank
        self.min_normal_rank = min_normal_rank
        self.max_normal_rank = max_normal_rank
        self.dtype = np.dtype(dtype)
        self.fault_policy = resolve_policy(fault_policy)
        self.task_deadline = task_deadline
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def fit(self, measurements: np.ndarray) -> TemporalShardFit:
        """Fan the fit out over shards; merge; fit once; separate.

        The returned detector is an ordinary fitted
        :class:`~repro.core.detection.SPEDetector` whose PCA is
        bit-identical to ``SPEDetector(svd_method="gram")`` fitted
        monolithically (for ``t >= m``, the sharding regime).
        """
        begin = time.perf_counter()
        measurements = ensure_matrix(
            measurements, name="measurements", error=ModelError,
            check_finite=False,
        )
        if not measurements.flags.c_contiguous:
            # The fork/shared-memory fan-out hands workers row ranges of
            # one flat buffer; only a non-contiguous layout forces a copy.
            measurements = np.ascontiguousarray(measurements)
        bounds = _shard_bounds(measurements.shape[0], self.num_shards)
        workers = _worker_count(self.workers, len(bounds))

        with _task_runner(self, measurements, workers) as (traffic, run):
            stats_run = run(
                _run_stats_task,
                [_StatsTask(traffic, start, stop) for start, stop in bounds],
                stage="stats",
            )
            raise_if_lost(stats_run, "temporal stats pass", self.fault_policy)
            reports = [stats_run.report]
            surviving = [
                index
                for index, result in enumerate(stats_run.results)
                if result is not None
            ]
            if not surviving:
                raise SupervisionError(
                    "every statistics chunk was lost; nothing survives "
                    "to fit",
                    report=stats_run.report,
                )
            live_bounds = [bounds[index] for index in surviving]
            covered = sum(b - a for a, b in live_bounds)
            coverage = covered / measurements.shape[0]
            timings = [
                WorkerTiming(
                    worker=index,
                    start=bounds[index][0],
                    size=bounds[index][1] - bounds[index][0],
                    stats_seconds=stats_run.results[index][1],
                )
                for index in surviving
            ]
            pca, merge_s, fit_s = self._fit_merged(
                [stats_run.results[index][0] for index in surviving],
                allow_gaps=coverage < 1.0,
            )
            unit_moments: list[ScoreMoments] | None = None
            sep_begin = time.perf_counter()
            if self.normal_rank is None:
                # A shard folds the canonical units that start inside it,
                # reading past its stop to finish its last tile, so the
                # units — and the bits — never depend on the shard bounds.
                units = canonical_units(
                    _CoverageLedger(live_bounds).intervals(), DEFAULT_TILE_ROWS
                )
                starts = [lo for lo, _ in units]
                cuts = [bisect_left(starts, a) for a, _ in live_bounds]
                cuts.append(len(units))
                moments_run = run(
                    _run_moments_task,
                    [
                        _MomentsTask(
                            traffic, tuple(units[i:j]), pca.mean,
                            pca.components,
                        )
                        for i, j in zip(cuts, cuts[1:])
                    ],
                    stage="moments",
                )
                raise_if_lost(
                    moments_run, "temporal moments pass", self.fault_policy
                )
                reports.append(moments_run.report)
                unit_moments = []
                for slot, output in enumerate(moments_run.results):
                    if output is None:
                        continue  # partial: lost moments chunk
                    parts, seconds = output
                    timings[slot] = replace(
                        timings[slot], moments_seconds=seconds
                    )
                    unit_moments.extend(parts)
                if not unit_moments:
                    raise SupervisionError(
                        "every score-moments chunk was lost; the 3σ "
                        "separation cannot run",
                        report=moments_run.report,
                    )
        fault = reports[0]
        for extra in reports[1:]:
            fault = fault.merge(extra)
        return self._finish(
            pca,
            unit_moments,
            begin,
            sep_begin,
            num_shards=len(bounds),
            workers=workers,
            num_rows=measurements.shape[0],
            coverage=coverage,
            fault=fault,
            merge_seconds=merge_s,
            fit_seconds=fit_s,
            worker_timings=tuple(timings),
        )

    def fit_stream(
        self,
        chunk_source: Callable[[], Iterable],
        expected_rows: int | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> TemporalShardFit:
        """Out-of-core fit over a re-iterable chunk source.

        ``chunk_source()`` must return a fresh iterator each time it is
        called, yielding either plain ``(k, m)`` row chunks (oldest
        first — the sequential protocol) or ``(start_row, chunk)`` pairs
        (the resilient indexed protocol for sources that may deliver
        chunks late, twice, or out of order).  The matrix is never
        materialized.  One pass accumulates sufficient statistics; when
        the separation rule is needed, a second pass stitches the rows
        into canonical tiles and scores each tile once.  Both passes
        are exact, so the result matches :meth:`fit` on the
        concatenated chunks bit for bit.

        A coverage ledger slices every incoming chunk to its not-yet-
        covered rows before folding, so duplicated, re-delivered and
        out-of-order chunks fold each row exactly once — a faulty
        source retried to success is bit-identical to a clean pass.

        A source that raises mid-iteration (or leaves a coverage gap) is
        re-iterated up to ``max_retries`` times under the ``retry`` and
        ``partial`` policies; under ``partial`` a stream that never
        completes still fits from the surviving rows and records the
        coverage fraction.

        Parameters
        ----------
        expected_rows:
            Total rows the source is supposed to deliver.  Without it a
            *trailing* loss is undetectable (the stream just looks
            shorter); interior gaps are detected either way.
        checkpoint_path:
            When set, the accumulated statistics are checkpointed
            atomically after every folded chunk, and a fit that finds
            the file already there resumes from it: an interrupted fit
            re-run picks up from the last completed chunk boundary —
            bit-identically to an uninterrupted run, because already-
            covered rows are skipped by the same exactly-once ledger.
            A corrupt or unreadable checkpoint, or one whose statistics
            use another tile height, is recorded as a fault and the fit
            starts fresh.
        """
        begin = time.perf_counter()
        path = None if checkpoint_path is None else Path(checkpoint_path)

        stats: SufficientStats | None = None
        ledger = _CoverageLedger()
        timings: list[WorkerTiming] = []
        merge_s = 0.0
        stream_faults: list[TaskFault] = []

        if path is not None and path.exists():
            try:
                stats, ledger, timings, merge_s = (
                    self._load_stream_checkpoint(path)
                )
            except CheckpointError as err:
                stream_faults.append(
                    TaskFault(
                        task=-1,
                        attempt=0,
                        kind="corrupt_checkpoint",
                        worker=-1,
                        detail=str(err),
                    )
                )

        def fold(start: int, chunk: np.ndarray) -> None:
            nonlocal stats, merge_s
            for lo, hi in ledger.uncovered(start, start + chunk.shape[0]):
                piece = chunk[lo - start : hi - start]
                pass_begin = time.perf_counter()
                piece_stats = SufficientStats.from_block(piece, start_row=lo)
                stats_s = time.perf_counter() - pass_begin
                merge_begin = time.perf_counter()
                stats = (
                    piece_stats
                    if stats is None
                    else stats.merge(piece_stats)
                )
                merge_s += time.perf_counter() - merge_begin
                ledger.add(lo, hi)
                timings.append(
                    WorkerTiming(
                        worker=len(timings),
                        start=lo,
                        size=hi - lo,
                        stats_seconds=stats_s,
                    )
                )
                if path is not None:
                    self._write_stream_checkpoint(
                        path, stats, ledger, timings, merge_s
                    )

        def gap() -> str | None:
            expected = (
                ledger.max_stop if expected_rows is None else expected_rows
            )
            intervals = ledger.intervals()
            if (
                stats is not None
                and len(intervals) == 1
                and intervals[0] == (0, max(expected, intervals[0][1]))
            ):
                return None
            return (
                f"covered {ledger.covered_rows} of {expected} rows "
                f"in {len(intervals)} interval(s)"
            )

        attempts, faults, detail = self._drive(chunk_source, fold, gap, seed=0)
        stream_faults.extend(faults)
        if detail is not None and self.fault_policy != "partial":
            if stats is None:
                raise ModelError("chunk source yielded no chunks")
            raise SupervisionError(
                f"stream coverage is incomplete after {attempts} "
                f"pass(es): {detail}"
            )
        if stats is None:
            raise SupervisionError(
                "no chunks survived the faulty stream; nothing to fit"
            )

        expected = (
            ledger.max_stop if expected_rows is None else expected_rows
        )
        coverage = (
            min(1.0, ledger.covered_rows / expected) if expected else 1.0
        )
        fault: FaultReport | None = None
        if stream_faults:
            fault = FaultReport(
                tasks=len(timings),
                attempts=attempts,
                retries=attempts - 1,
                faults=tuple(stream_faults),
            )
        return self._fit_accumulated(
            stats,
            chunk_source,
            tuple(timings),
            merge_s,
            begin,
            ledger=ledger,
            coverage=coverage,
            fault=fault,
        )

    def _write_stream_checkpoint(
        self, path: Path, stats, ledger, timings, merge_s: float
    ) -> None:
        atomic_pickle_dump(
            path,
            {
                "schema_version": STREAM_CHECKPOINT_SCHEMA_VERSION,
                "tile_rows": DEFAULT_TILE_ROWS,
                "dtype": self.dtype.name,
                "intervals": ledger.intervals(),
                "stats": stats,
                "timings": tuple(timings),
                "merge_seconds": merge_s,
            },
        )

    def _load_stream_checkpoint(self, path: Path):
        """Load a stream checkpoint; :class:`CheckpointError` on damage."""
        import pickle

        try:
            with Path(path).open("rb") as handle:
                payload = pickle.load(handle)
        except Exception as err:  # noqa: BLE001 - any damage mode
            raise CheckpointError(
                f"stream checkpoint {path} is unreadable: "
                f"{type(err).__name__}: {err}"
            ) from err
        if (
            not isinstance(payload, dict)
            or payload.get("schema_version")
            != STREAM_CHECKPOINT_SCHEMA_VERSION
        ):
            raise CheckpointError(
                f"stream checkpoint {path} has an unsupported layout "
                f"(expected schema_version "
                f"{STREAM_CHECKPOINT_SCHEMA_VERSION})"
            )
        try:
            stats = payload["stats"]
            ledger = _CoverageLedger(payload["intervals"])
            timings = list(payload["timings"])
            merge_s = float(payload["merge_seconds"])
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(
                f"stream checkpoint {path} is malformed: {err}"
            ) from err
        if not isinstance(stats, SufficientStats):
            raise CheckpointError(
                f"stream checkpoint {path} does not hold sufficient "
                f"statistics (got {type(stats).__name__})"
            )
        if stats.tile_rows != DEFAULT_TILE_ROWS:
            raise CheckpointError(
                f"stream checkpoint {path} holds statistics on "
                f"{stats.tile_rows}-row tiles, not {DEFAULT_TILE_ROWS}"
            )
        return stats, ledger, timings, merge_s

    def fit_from_stats(
        self,
        stats: SufficientStats,
        chunk_source: Callable[[], Iterable[np.ndarray]] | None = None,
    ) -> TemporalShardFit:
        """Fit from *already accumulated* sufficient statistics.

        This is the refit entry point of the always-on service
        (:mod:`repro.service`): its tile-packed history computes each
        tile's statistics once as the tile fills, so by refit time
        pass 1 of :meth:`fit_stream` has effectively already run.
        ``chunk_source`` must replay exactly the rows the statistics
        cover and is only consulted when the 3σ separation rule needs
        its score-moments pass (``normal_rank=None``); with an explicit
        rank the fit is a pure function of ``stats``.

        The result is bit-identical to :meth:`fit` /
        :meth:`fit_stream` on the same rows, by the sufficient-statistics
        exactness guarantees.
        """
        begin = time.perf_counter()
        if not isinstance(stats, SufficientStats):
            raise ModelError(
                f"stats must be SufficientStats, got {type(stats).__name__}"
            )
        if stats.tile_rows != DEFAULT_TILE_ROWS:
            raise ModelError(
                f"tile_rows mismatch: statistics use {stats.tile_rows}, "
                f"every fit folds {DEFAULT_TILE_ROWS}"
            )
        if self.normal_rank is None and chunk_source is None:
            raise ModelError(
                "the 3σ separation rule needs a chunk_source replaying "
                "the statistics' rows; pass one or set an explicit "
                "normal_rank"
            )
        return self._fit_accumulated(stats, chunk_source, (), 0.0, begin)

    def _fit_accumulated(
        self,
        stats: SufficientStats,
        chunk_source: Callable[[], Iterable] | None,
        timings: tuple[WorkerTiming, ...],
        merge_s: float,
        begin: float,
        ledger: "_CoverageLedger | None" = None,
        coverage: float = 1.0,
        fault: FaultReport | None = None,
    ) -> TemporalShardFit:
        """Shared tail of the streaming/accumulated fit routes.

        ``ledger`` is pass 1's coverage (absolute row intervals the
        statistics fold); the separation pass scores the canonical units
        of exactly those rows, each once, so a faulty source replayed
        for pass 2 still yields the clean-run moments.  ``None`` means
        the statistics cover ``[0, num_samples)`` contiguously (the
        accumulated route).
        """
        pca, _, fit_s = self._fit_merged([stats], allow_gaps=coverage < 1.0)

        unit_moments: list[ScoreMoments] | None = None
        sep_begin = time.perf_counter()
        if self.normal_rank is None:
            covered = (
                ledger.intervals()
                if ledger is not None
                else [(0, pca.num_samples)]
            )
            replay = _UnitReplay(
                canonical_units(covered, DEFAULT_TILE_ROWS),
                pca.mean,
                pca.components,
            )
            attempts, faults, detail = self._drive(
                chunk_source, replay.add, replay.end_pass, seed=1
            )
            if detail is not None and self.fault_policy != "partial":
                raise ModelError(
                    f"chunk source changed between passes: {detail}"
                )
            unit_moments = replay.moments()
            if not unit_moments:
                raise SupervisionError(
                    "no score moments survived the faulty stream; the 3σ "
                    "separation cannot run (set an explicit normal_rank "
                    "to fit without it)"
                )
            if faults:
                extra = FaultReport(
                    attempts=attempts,
                    retries=attempts - 1,
                    faults=tuple(faults),
                )
                fault = extra if fault is None else fault.merge(extra)
        return self._finish(
            pca,
            unit_moments,
            begin,
            sep_begin,
            num_shards=len(timings),
            workers=1,
            num_rows=pca.num_samples,
            coverage=coverage,
            fault=fault,
            merge_seconds=merge_s,
            fit_seconds=fit_s,
            worker_timings=tuple(timings),
        )

    def _drive(
        self,
        chunk_source: Callable[[], Iterable],
        fold: Callable[[int, np.ndarray], None],
        gap: Callable[[], str | None],
        seed: int,
    ) -> tuple[int, list[TaskFault], str | None]:
        """Run passes over a re-iterable source until a pass is complete.

        Each pass feeds every non-empty ``(start_row, chunk)`` to
        ``fold``; ``gap()`` is called once after every pass and returns
        ``None`` when nothing is missing, else what is.  A source that
        raises, or a pass with a gap, is a fault, and the source is
        re-iterated up to ``max_retries`` times (none under
        ``fail-fast``) with jittered exponential backoff, the jitter
        drawn from ``random.Random(seed)``.  Returns the passes made,
        the faults, and the last pass's unresolved fault (``None`` when
        it completed).  A source error that exhausts the retries is
        re-raised unless the policy is ``partial``.
        """
        policy = self.fault_policy
        allowed = 0 if policy == "fail-fast" else self.max_retries
        backoff_rng = random.Random(seed)
        faults: list[TaskFault] = []
        attempt = 0
        while True:
            attempt += 1
            source_error: Exception | None = None
            position = 0
            try:
                for item in chunk_source():
                    # Zero-copy for conforming chunks: memmap slices
                    # stream straight into the kernels.
                    start, chunk = _stream_item(item, position)
                    position = start + chunk.shape[0]
                    if chunk.shape[0]:  # an empty shard contributes nothing
                        fold(start, chunk)
            except ReproError:
                raise  # our own validation errors are never retried
            except Exception as err:  # noqa: BLE001 - source fault
                source_error = err
            missing = gap()
            if source_error is not None:
                missing = f"{type(source_error).__name__}: {source_error}"
            if missing is None:
                return attempt, faults, None
            faults.append(
                TaskFault(
                    task=-1,
                    attempt=attempt,
                    kind=(
                        "stream_gap" if source_error is None else "stream_error"
                    ),
                    worker=-1,
                    detail=missing,
                )
            )
            if attempt <= allowed:
                time.sleep(
                    backoff_delay(attempt, self.backoff_base, 0.25, backoff_rng)
                )
                continue
            if source_error is not None and policy != "partial":
                raise source_error
            return attempt, faults, missing

    # ------------------------------------------------------------------
    def _fit_merged(
        self, stats_parts: Sequence[SufficientStats], allow_gaps: bool = False
    ) -> tuple[PCA, float, float]:
        """Merge per-chunk statistics and fit the PCA once.

        ``allow_gaps`` finalizes the merged statistics tolerating
        interior coverage gaps — the ``partial`` policy's path when
        whole chunks were permanently lost.
        """
        merge_begin = time.perf_counter()
        merged = stats_parts[0]
        for part in stats_parts[1:]:
            merged = merged.merge(part)
        merge_s = time.perf_counter() - merge_begin

        fit_begin = time.perf_counter()
        source = merged.finalize(allow_gaps=True) if allow_gaps else merged
        pca = PCA(method="gram", dtype=self.dtype).fit_from_stats(source)
        return pca, merge_s, time.perf_counter() - fit_begin

    def _finish(
        self,
        pca: PCA,
        unit_moments: list[ScoreMoments] | None,
        begin: float,
        sep_begin: float,
        **report,
    ) -> TemporalShardFit:
        """Separate (from the per-unit moments, in row order), package
        and report.

        ``unit_moments`` is ``None`` when the coordinator has an
        explicit rank and the separation rule does not run.  The
        detector records the *requested* parameters (rank None when the
        separation rule ran, the coordinator's sigma and clamps), so an
        equivalence checker refitting from them reproduces the full
        monolithic procedure instead of pinning the computed rank.
        ``report`` holds the route's own :class:`ShardReport` fields.
        """
        separation: SeparationResult | None = None
        rank = self.normal_rank
        if unit_moments is not None:
            separation = separate_axes_from_moments(
                pca,
                fold_moments(unit_moments, pca.num_components),
                threshold_sigma=self.threshold_sigma,
                min_normal_rank=self.min_normal_rank,
                max_normal_rank=self.max_normal_rank,
            )
            rank = separation.normal_rank
        sep_s = 0.0 if separation is None else time.perf_counter() - sep_begin
        model = SubspaceModel.with_rank(pca, rank)
        if separation is not None:
            model.separation = separation
        detector = SPEDetector.from_model(
            model,
            confidence=self.confidence,
            threshold_sigma=self.threshold_sigma,
            normal_rank=self.normal_rank,
            min_normal_rank=self.min_normal_rank,
            max_normal_rank=self.max_normal_rank,
            dtype=self.dtype,
        )
        return TemporalShardFit(
            detector=detector,
            separation=separation,
            report=ShardReport(
                mode="temporal",
                num_links=pca.num_components,
                confidence=self.confidence,
                normal_rank=detector.normal_rank,
                threshold=float(detector.threshold),
                tile_rows=DEFAULT_TILE_ROWS,
                separation_seconds=sep_s,
                elapsed_seconds=time.perf_counter() - begin,
                **report,
            ),
        )


def temporal_fit_matches_monolithic(
    fit: TemporalShardFit, measurements: np.ndarray
) -> bool:
    """Is a sharded fit bit-identical to the monolithic gram fit?

    Compares mean, components, singular values, the separation's
    per-axis deviations and first anomalous axis, the rank and the
    Q-statistic threshold against a fresh in-process
    ``SPEDetector(svd_method="gram")`` fit built from the sharded
    detector's *requested* configuration — rank ``None`` when the
    separation rule chose it, so the reference genuinely re-runs the
    monolithic 3σ procedure rather than pinning the computed rank.
    Every comparison is exact: both fits fold the same canonical tiles
    (``t >= m``).  Any mismatch returns False rather than raising, so
    callers can gate on it.
    """
    reference = SPEDetector(
        confidence=fit.detector.confidence,
        threshold_sigma=fit.detector.threshold_sigma,
        normal_rank=fit.detector.requested_rank,
        min_normal_rank=fit.detector.min_normal_rank,
        max_normal_rank=fit.detector.max_normal_rank,
        svd_method="gram",
        dtype=fit.detector.dtype,
    ).fit(measurements)
    ours, theirs = fit.detector.model, reference.model
    ours_sep = getattr(ours, "separation", None)
    theirs_sep = getattr(theirs, "separation", None)
    if (ours_sep is None) != (theirs_sep is None):
        return False
    if ours_sep is not None and not (
        np.array_equal(ours_sep.max_deviations, theirs_sep.max_deviations)
        and ours_sep.first_anomalous_axis == theirs_sep.first_anomalous_axis
    ):
        return False
    return (
        np.array_equal(ours.pca.mean, theirs.pca.mean)
        and np.array_equal(ours.pca.components, theirs.pca.components)
        and np.array_equal(
            ours.pca.captured_variance(), theirs.pca.captured_variance()
        )
        and ours.normal_rank == theirs.normal_rank
        and fit.detector.threshold == reference.threshold
    )


# ----------------------------------------------------------------------
# Spatial sharding.


def partition_links(
    num_links: int, num_zones: int, scheme: str = "contiguous"
) -> tuple[np.ndarray, ...]:
    """Partition link indices into zones.

    ``"contiguous"`` keeps index runs together (matches how builders
    emit links: per-node, so zones approximate geographic regions);
    ``"round-robin"`` stripes them (zones see a cross-section of the
    network).  Both are deterministic.
    """
    if num_zones < 1:
        raise ValidationError(f"num_zones must be >= 1, got {num_zones}")
    if num_zones > num_links:
        raise ValidationError(
            f"cannot split {num_links} links into {num_zones} zones"
        )
    indices = np.arange(num_links)
    if scheme == "contiguous":
        return tuple(np.array_split(indices, num_zones))
    if scheme == "round-robin":
        return tuple(indices[z::num_zones] for z in range(num_zones))
    raise ValidationError(
        f"unknown partition scheme {scheme!r}; "
        "choose 'contiguous' or 'round-robin'"
    )


def _quorum_votes(votes: int, total_zones: int, alive_zones: int) -> int:
    """Scale a k-of-n vote quorum to the surviving zone count.

    The requested quorum fraction ``votes / total_zones`` is preserved
    (rounded up) over the ``alive_zones`` survivors, clamped to
    ``[1, alive_zones]`` — a majority stays a majority after losses.
    """
    return max(
        1,
        min(alive_zones, math.ceil(votes * alive_zones / total_zones)),
    )


class SpatialShardedModel:
    """Per-zone subspace detectors plus the pluggable fusion stage.

    Build via :meth:`SpatialCoordinator.fit`.  All fusion modes operate
    on the per-zone SPE matrix; :meth:`fused_score` returns the
    continuous statistic each mode thresholds:

    * ``union`` / ``vote`` score in units of per-zone threshold ratios
      (``1.0`` is the native alarm boundary);
    * ``rescore`` scores in residual-energy units against the pooled
      Jackson–Mudholkar limit.

    A model may be *degraded*: some of its original zones lost (a
    worker death under the ``partial`` policy, or an operational outage
    applied via :meth:`without_zones`).  A degraded model still scores
    full-width measurement blocks — the surviving zones index into the
    original link columns — with its ``vote`` quorum scaled to the
    survivors by :func:`_quorum_votes` and its ``coverage`` reporting
    the fraction of links still watched.
    """

    def __init__(
        self,
        zones: tuple[np.ndarray, ...],
        detectors: tuple[SPEDetector, ...],
        confidence: float,
        votes: int,
        requested_votes: int | None = None,
        num_links: int | None = None,
        total_zones: int | None = None,
        dead_zones: tuple[int, ...] = (),
        zone_ids: tuple[int, ...] | None = None,
    ) -> None:
        if len(zones) != len(detectors):
            raise ModelError(
                f"{len(zones)} zones but {len(detectors)} detectors"
            )
        if not 1 <= votes <= len(zones):
            raise ModelError(
                f"votes must lie in [1, {len(zones)}], got {votes}"
            )
        self.zones = zones
        self.detectors = detectors
        self.confidence = confidence
        self.votes = votes
        self.requested_votes = (
            votes if requested_votes is None else int(requested_votes)
        )
        self.total_zones = (
            len(zones) if total_zones is None else int(total_zones)
        )
        self.dead_zones = tuple(sorted(int(z) for z in dead_zones))
        self.zone_ids = (
            tuple(range(len(zones))) if zone_ids is None else zone_ids
        )
        if len(self.zone_ids) != len(zones):
            raise ModelError(
                f"{len(zones)} zones but {len(self.zone_ids)} zone ids"
            )
        watched = int(sum(zone.size for zone in zones))
        self.num_links = watched if num_links is None else int(num_links)
        self._watched_links = watched

    # ------------------------------------------------------------------
    @property
    def num_zones(self) -> int:
        """Number of (surviving) link zones."""
        return len(self.zones)

    @property
    def coverage(self) -> float:
        """Fraction of the network's links the surviving zones watch."""
        return self._watched_links / self.num_links

    def without_zones(self, dead: Iterable[int]) -> "SpatialShardedModel":
        """A degraded copy with the given *original* zone ids removed.

        The quorum of the ``vote`` fusion is rescaled to the survivors;
        thresholds and detectors of surviving zones are untouched, so
        their alarms are bit-identical to the full model's.  Removing
        every zone raises :class:`ModelError`.
        """
        dead_req = {int(z) for z in dead}
        unknown = dead_req - set(range(self.total_zones))
        if unknown:
            raise ModelError(
                f"unknown zone id(s) {sorted(unknown)}; this plane has "
                f"zones 0..{self.total_zones - 1}"
            )
        dead_all = set(self.dead_zones) | dead_req
        keep = [
            index
            for index, zone_id in enumerate(self.zone_ids)
            if zone_id not in dead_all
        ]
        if not keep:
            raise ModelError(
                "cannot drop every zone; at least one must survive"
            )
        return SpatialShardedModel(
            zones=tuple(self.zones[i] for i in keep),
            detectors=tuple(self.detectors[i] for i in keep),
            confidence=self.confidence,
            votes=_quorum_votes(
                self.requested_votes, self.total_zones, len(keep)
            ),
            requested_votes=self.requested_votes,
            num_links=self.num_links,
            total_zones=self.total_zones,
            dead_zones=tuple(sorted(dead_all)),
            zone_ids=tuple(self.zone_ids[i] for i in keep),
        )

    @property
    def zone_ranks(self) -> tuple[int, ...]:
        """Fitted normal rank per zone."""
        return tuple(det.normal_rank for det in self.detectors)

    def zone_thresholds(self, confidence: float | None = None) -> np.ndarray:
        """Per-zone Q-statistic limits at a confidence level."""
        level = self.confidence if confidence is None else confidence
        return np.array(
            [det.threshold_at(level) for det in self.detectors]
        )

    def pooled_residual_eigenvalues(self) -> np.ndarray:
        """Residual eigenvalues of every zone, concatenated.

        Under a block-diagonal covariance this *is* the global residual
        spectrum, which makes ``q_threshold`` over it the natural limit
        for the ``rescore`` fusion's total residual energy.
        """
        return np.concatenate(
            [det.model.residual_eigenvalues() for det in self.detectors]
        )

    def rescore_threshold(self, confidence: float | None = None) -> float:
        """The pooled-spectrum limit the ``rescore`` fusion applies."""
        level = self.confidence if confidence is None else confidence
        return q_threshold(
            self.pooled_residual_eigenvalues(), confidence=level
        )

    # ------------------------------------------------------------------
    def _check_block(self, measurements: np.ndarray) -> np.ndarray:
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.ndim == 1:
            measurements = measurements[None, :]
        if measurements.shape[1] != self.num_links:
            raise ModelError(
                f"measurements cover {measurements.shape[1]} links, "
                f"model expects {self.num_links}"
            )
        return measurements

    def zone_spe(self, measurements: np.ndarray) -> np.ndarray:
        """Per-zone SPE of a block: shape ``(t, num_zones)``."""
        measurements = self._check_block(measurements)
        return np.column_stack(
            [
                np.atleast_1d(det.spe(measurements[:, zone]))
                for det, zone in zip(self.detectors, self.zones)
            ]
        )

    def fused_score(
        self,
        measurements: np.ndarray,
        fusion: str = "rescore",
        confidence: float | None = None,
    ) -> np.ndarray:
        """The continuous fused statistic of one fusion mode."""
        spe = self.zone_spe(measurements)
        return self.fuse(spe, fusion, confidence=confidence)

    def fuse(
        self,
        zone_spe: np.ndarray,
        fusion: str,
        confidence: float | None = None,
    ) -> np.ndarray:
        """Fuse an already-computed per-zone SPE matrix."""
        if fusion == "rescore":
            return zone_spe.sum(axis=1)
        thresholds = self.zone_thresholds(confidence)
        # A zone whose normal subspace fills its whole space has an
        # exactly-zero limit (and exactly-zero SPE on in-model data);
        # fall back to raw energy units there so the ratio stays finite
        # and a genuinely nonzero residual still registers.
        safe = np.where(thresholds > 0, thresholds, 1.0)
        ratios = zone_spe / safe
        if fusion == "union":
            return ratios.max(axis=1)
        if fusion == "vote":
            return np.sort(ratios, axis=1)[:, -self.votes]
        raise ModelError(
            f"unknown fusion mode {fusion!r}; choose from {FUSION_MODES}"
        )

    def fusion_threshold(
        self, fusion: str, confidence: float | None = None
    ) -> float:
        """The native alarm boundary of one fusion mode."""
        if fusion == "rescore":
            return self.rescore_threshold(confidence)
        if fusion in ("union", "vote"):
            return 1.0
        raise ModelError(
            f"unknown fusion mode {fusion!r}; choose from {FUSION_MODES}"
        )

    def alarms(
        self,
        measurements: np.ndarray,
        fusion: str = "rescore",
        confidence: float | None = None,
    ) -> np.ndarray:
        """Native fused alarm flags for a block."""
        score = self.fused_score(measurements, fusion, confidence=confidence)
        return score > self.fusion_threshold(fusion, confidence)

    def alarm_report(
        self,
        measurements: np.ndarray,
        fusion: str = "rescore",
        confidence: float | None = None,
    ) -> dict:
        """Fused alarms annotated with the plane's degradation state.

        The JSON-ready payload a degraded plane emits instead of bare
        alarm flags: which zones are dead, what fraction of links the
        decision actually covers, and the quorum in force.
        """
        score = self.fused_score(measurements, fusion, confidence=confidence)
        threshold = self.fusion_threshold(fusion, confidence)
        return {
            "fusion": fusion,
            "threshold": float(threshold),
            "votes": self.votes,
            "coverage": self.coverage,
            "dead_zones": list(self.dead_zones),
            "alarms": [bool(flag) for flag in np.atleast_1d(score > threshold)],
            "fused_score": [float(v) for v in np.atleast_1d(score)],
        }


@dataclass(frozen=True)
class SpatialShardFit:
    """A fitted spatial plane plus its report."""

    model: SpatialShardedModel
    report: ShardReport


@dataclass(frozen=True)
class _ZoneFitTask:
    traffic: "np.ndarray | SharedArray | None"
    links: np.ndarray
    confidence: float
    threshold_sigma: float
    normal_rank: int | None


def _run_zone_task(task: _ZoneFitTask) -> tuple[SPEDetector, float]:
    begin = time.perf_counter()
    traffic = _resolve_traffic(task.traffic)
    detector = SPEDetector(
        confidence=task.confidence,
        threshold_sigma=task.threshold_sigma,
        normal_rank=task.normal_rank,
    ).fit(np.ascontiguousarray(traffic[:, task.links]))
    return detector, time.perf_counter() - begin


class SpatialCoordinator:
    """Fit one local subspace detector per link zone, plus fusion.

    Parameters
    ----------
    num_zones:
        Link zones (each fits an independent subspace model).
    scheme:
        Link partition scheme (see :func:`partition_links`).
    votes:
        ``k`` of the k-of-n ``vote`` fusion; ``None`` uses a majority
        (``ceil(num_zones / 2)``).
    workers:
        Worker processes for the zone fits; ``None`` = one per zone
        capped at the CPU count, ``1`` = serial in-process (identical
        results).
    confidence, threshold_sigma, normal_rank:
        Per-zone model parameters.
    score_training:
        Run one fused scoring pass over the training block after the
        zone fits (measures the fuse stage and pins every mode's native
        threshold into the report).  Disable when only the fitted plane
        is needed.
    fault_policy, task_deadline, max_retries, backoff_base, fault_plan:
        Supervision parameters of the parallel zone fits, exactly as
        for :class:`TemporalCoordinator`.  Under ``partial``, a zone
        whose fit is permanently lost is dropped from the plane: the
        surviving zones form a degraded
        :class:`SpatialShardedModel` with a quorum-adjusted ``vote``
        fusion and a ``coverage`` fraction below 1.
    """

    def __init__(
        self,
        num_zones: int = 2,
        scheme: str = "contiguous",
        votes: int | None = None,
        workers: int | None = None,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        score_training: bool = True,
        fault_policy: str = "fail-fast",
        task_deadline: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        fault_plan=None,
    ) -> None:
        if num_zones < 1:
            raise ValidationError(f"num_zones must be >= 1, got {num_zones}")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if votes is not None and votes < 1:
            raise ValidationError(f"votes must be >= 1, got {votes}")
        self.num_zones = int(num_zones)
        self.scheme = scheme
        self.votes = votes
        self.workers = workers
        self.confidence = confidence
        self.threshold_sigma = threshold_sigma
        self.normal_rank = normal_rank
        self.score_training = score_training
        self.fault_policy = resolve_policy(fault_policy)
        self.task_deadline = task_deadline
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def fit(self, measurements: np.ndarray) -> SpatialShardFit:
        """Fit every zone (serially or fanned out over processes)."""
        begin = time.perf_counter()
        measurements = np.ascontiguousarray(measurements, dtype=np.float64)
        if measurements.ndim != 2:
            raise ModelError(
                f"measurements must be (t, m), got shape {measurements.shape}"
            )
        zones = partition_links(
            measurements.shape[1], self.num_zones, scheme=self.scheme
        )
        votes = self.votes
        if votes is None:
            votes = max(1, (len(zones) + 1) // 2)
        if votes > len(zones):
            raise ValidationError(
                f"votes={votes} exceeds the {len(zones)} zones"
            )
        workers = _worker_count(self.workers, len(zones))

        fitted, timings, fault = self._fit_zones(measurements, zones, workers)

        alive = sorted(fitted)
        dead = tuple(
            index for index in range(len(zones)) if index not in fitted
        )
        if dead:
            model = SpatialShardedModel(
                zones=tuple(zones[i] for i in alive),
                detectors=tuple(fitted[i] for i in alive),
                confidence=self.confidence,
                votes=_quorum_votes(votes, len(zones), len(alive)),
                requested_votes=votes,
                num_links=measurements.shape[1],
                total_zones=len(zones),
                dead_zones=dead,
                zone_ids=tuple(alive),
            )
        else:
            model = SpatialShardedModel(
                zones=zones,
                detectors=tuple(fitted[i] for i in alive),
                confidence=self.confidence,
                votes=votes,
            )
        # One fused scoring pass over the training block: measures the
        # fuse stage and pins every mode's native threshold into the
        # report.
        fuse_s = 0.0
        fusion_thresholds: dict[str, float] = {}
        if self.score_training:
            fuse_begin = time.perf_counter()
            zone_spe = model.zone_spe(measurements)
            for fusion in FUSION_MODES:
                model.fuse(zone_spe, fusion)
                fusion_thresholds[fusion] = float(
                    model.fusion_threshold(fusion)
                )
            fuse_s = time.perf_counter() - fuse_begin

        report = ShardReport(
            mode="spatial",
            num_shards=len(zones),
            workers=workers,
            num_rows=measurements.shape[0],
            num_links=measurements.shape[1],
            confidence=self.confidence,
            normal_rank=model.zone_ranks,
            threshold=tuple(
                float(det.threshold) for det in model.detectors
            ),
            fusion_thresholds=fusion_thresholds,
            coverage=model.coverage,
            fault=fault,
            fuse_seconds=fuse_s,
            elapsed_seconds=time.perf_counter() - begin,
            worker_timings=tuple(timings),
        )
        return SpatialShardFit(model=model, report=report)

    def _fit_zones(self, measurements, zones, workers):
        with _task_runner(self, measurements, workers) as (
            traffic,
            run_tasks,
        ):
            tasks = [
                _ZoneFitTask(
                    traffic=traffic,
                    links=zone,
                    confidence=self.confidence,
                    threshold_sigma=self.threshold_sigma,
                    normal_rank=self.normal_rank,
                )
                for zone in zones
            ]
            run = run_tasks(_run_zone_task, tasks, stage="zones")
        raise_if_lost(run, "spatial zone fits", self.fault_policy)
        fitted: dict[int, SPEDetector] = {}
        timings: list[WorkerTiming] = []
        for index, output in enumerate(run.results):
            if output is None:
                continue  # partial: permanently lost zone
            fitted[index], seconds = output
            timings.append(
                WorkerTiming(
                    worker=index,
                    start=int(zones[index][0]),
                    size=int(zones[index].size),
                    stats_seconds=seconds,
                )
            )
        if not fitted:
            raise SupervisionError(
                "every zone fit was lost; nothing survives to fuse",
                report=run.report,
            )
        return fitted, timings, run.report
