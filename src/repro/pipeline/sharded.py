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
monolithic fit on every route.  A memory-mapped matrix
(:func:`~repro.datasets.io.open_traffic_memmap`) goes through the same
:meth:`TemporalCoordinator.fit`: every pass reads row ranges of the map,
so the fit runs out of core.  The merged PCA and the folded moments
are finished by :meth:`~repro.core.detection.SPEDetector.fit_from_moments`,
the step every fit route ends in.

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
import time
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import ensure_matrix
from repro.core.detection import SPEDetector
from repro.core.pca import PCA
from repro.core.qstatistic import q_threshold
from repro.core.subspace import (
    ScoreMoments,
    SeparationResult,
    SubspaceModel,
    fold_moments,
    score_moments,
)

# perfbench's layer table times ``separate_axes_from_moments`` in this
# module; the name stays bound here for it to wrap.
from repro.core.subspace import separate_axes_from_moments  # noqa: F401
from repro.core.suffstats import (
    DEFAULT_TILE_ROWS,
    SufficientStats,
    canonical_units,
)
from repro.exceptions import ModelError, SupervisionError, ValidationError
from repro.pipeline.shm import SharedArray, attach_array, release, share_array
from repro.pipeline.supervision import (
    FAULT_POLICIES,
    FaultReport,
    PoolRun,
    SupervisedPool,
    raise_if_lost,
    resolve_policy,
)

__all__ = [
    "FAULT_POLICIES",
    "FUSION_MODES",
    "SHARD_SCHEMA_VERSION",
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
    report: ShardReport

    @property
    def separation(self) -> SeparationResult | None:
        """The fitted 3σ separation; None under an explicit rank."""
        return self.detector.model.separation

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


class TemporalCoordinator:
    """Fit the subspace model from per-time-chunk statistics.

    :meth:`fit` takes a ``(t, m)`` matrix, in memory or memory-mapped,
    and hands the merged PCA and folded moments to
    :meth:`~repro.core.detection.SPEDetector.fit_from_moments`.

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
        Degraded-mode policy of the parallel fit path (see
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
        Retry budget and first retry delay of the supervised pool;
        delays double per attempt up to
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
            moments: ScoreMoments | None = None
            sep_begin = time.perf_counter()
            if self.normal_rank is None:
                # A shard folds the canonical units that start inside it,
                # reading past its stop to finish its last tile, so the
                # units — and the bits — never depend on the shard bounds.
                runs: list[tuple[int, int]] = []
                for a, b in live_bounds:  # units need maximal runs
                    if runs and runs[-1][1] == a:
                        a = runs.pop()[0]
                    runs.append((a, b))
                units = canonical_units(runs, DEFAULT_TILE_ROWS)
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
                moments = fold_moments(unit_moments, pca.num_components)
        fault = reports[0]
        for extra in reports[1:]:
            fault = fault.merge(extra)
        detector = self._detector().fit_from_moments(pca, moments)
        return self._packaged(
            detector,
            begin,
            num_shards=len(bounds),
            workers=workers,
            num_rows=measurements.shape[0],
            coverage=coverage,
            fault=fault,
            merge_seconds=merge_s,
            fit_seconds=fit_s,
            separation_seconds=(
                0.0 if moments is None else time.perf_counter() - sep_begin
            ),
            worker_timings=tuple(timings),
        )

    def fit_from_stats(
        self, stats: SufficientStats, tiles: Sequence[np.ndarray] = ()
    ) -> TemporalShardFit:
        """:meth:`SPEDetector.fit_from_stats
        <repro.core.detection.SPEDetector.fit_from_stats>` under this
        coordinator's settings, with a :class:`ShardReport` whose
        ``fit_seconds`` time the whole fit.

        No fault policy applies: nothing here can be lost or retried.
        The service fits with the detector itself; this wrapper stays
        because perfbench's layer table times it.
        """
        begin = time.perf_counter()
        detector = self._detector().fit_from_stats(stats, tiles)
        return self._packaged(
            detector,
            begin,
            num_shards=0,
            workers=1,
            num_rows=detector.model.pca.num_samples,
            fit_seconds=time.perf_counter() - begin,
        )

    # ------------------------------------------------------------------
    def _detector(self) -> SPEDetector:
        """An unfitted detector under this coordinator's model settings."""
        return SPEDetector(
            confidence=self.confidence,
            threshold_sigma=self.threshold_sigma,
            normal_rank=self.normal_rank,
            min_normal_rank=self.min_normal_rank,
            max_normal_rank=self.max_normal_rank,
            dtype=self.dtype,
        )

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

    def _packaged(
        self, detector: SPEDetector, begin: float, **report
    ) -> TemporalShardFit:
        """The fitted detector with its :class:`ShardReport`; ``report``
        holds the route's own fields."""
        return TemporalShardFit(
            detector=detector,
            report=ShardReport(
                mode="temporal",
                num_links=detector.model.num_links,
                confidence=self.confidence,
                normal_rank=detector.normal_rank,
                threshold=float(detector.threshold),
                tile_rows=DEFAULT_TILE_ROWS,
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
    ours_sep, theirs_sep = ours.separation, theirs.separation
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
