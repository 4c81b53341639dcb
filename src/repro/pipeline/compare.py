"""Parallel multi-detector comparison grids (Fig. 10, generalized).

The paper's central claim is comparative: the subspace method separates
network-wide anomalies from normal traffic better than temporal
detectors applied to the same link measurements (§6.2, Fig. 10).
:class:`ComparisonRunner` turns that one-figure comparison into a
general workload over the :mod:`repro.detectors` registry with a
**fit-once, share-everything** execution model:

* **Stage 1 — fit.**  One task per (detector, dataset) pair: the
  detector is fitted exactly once on the clean trace.  The report's
  ``num_fits`` records the count and tests assert it never exceeds
  ``len(detectors) × len(datasets)``.
* **Stage 2 — score.**  One task per (detector, dataset, scenario):
  the fitted state is reused to score the scenario trace once, and
  every requested confidence level reads its operating point off those
  same scores — confidences multiply the grid for free.
* **Shared memory.**  In parallel runs the dataset traffic matrices,
  routing matrices and pickled fitted-detector state live in
  :mod:`multiprocessing.shared_memory` blocks; workers attach by name,
  so stage-2 tasks carry only scenario metadata instead of pickled
  arrays.  A serial run (``workers=1``) executes the same fit/score
  functions in-process and produces a byte-identical report — tests
  assert it, including through the shared-memory path.
* **Dead workers.**  A worker process that dies mid-task (killed,
  crashed, ``os._exit``) raises
  :class:`~repro.exceptions.SupervisionError` instead of leaving the
  run waiting on its task; a detector's own exception reaches the
  caller with its type.  The shared-memory blocks are released either
  way.

Scenario traces are derived deterministically from the scenario seed:
all detectors see byte-identical injected traces regardless of worker
layout.  Every (cell, scenario) pair is folded through
:mod:`repro.validation.roc` into an AUC and operating points, so the
comparison is quantitative rather than visual.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.dataset import Dataset
from repro.exceptions import SupervisionError, ValidationError
from repro.pipeline.shm import (
    SharedArray,
    SharedBlob,
    attach_array,
    attach_segment,
    release,
    share_array,
    share_blob,
)
from repro.validation.roc import operating_point, roc_curve

__all__ = [
    "ComparisonRunner",
    "ComparisonReport",
    "ComparisonCell",
    "ComparisonScenario",
    "REPORT_SCHEMA_VERSION",
]

#: Version of the :meth:`ComparisonReport.to_json` payload layout.
#: BENCH/report consumers key on it; bump on any structural change and
#: refresh the pinned schema golden
#: (``tests/pipeline/goldens/comparison_report.schema.json``).
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ComparisonScenario:
    """One column of the comparison grid.

    ``injection_size is None`` marks the baseline scenario: the
    unmodified trace scored against the dataset's ground-truth event
    ledger.  Otherwise ``num_injections`` spikes of ``injection_size``
    bytes are added to the trace at deterministically drawn
    (bin, flow) cells, and the truth set is the union of those bins
    with the ledger bins.
    """

    label: str
    injection_size: float | None
    num_injections: int = 0
    seed: int = 0


@dataclass(frozen=True)
class ComparisonCell:
    """Outcome of one (detector, dataset, scenario, confidence) grid cell.

    Attributes
    ----------
    detector, dataset, scenario:
        Grid coordinates (``scenario`` is the scenario label).
    injection_size:
        Injected spike size in bytes; None for the baseline scenario.
    auc:
        Area under the ROC of the detector's residual energy against
        the scenario's truth bins (confidence-independent).
    detection_at_budgets:
        ``((fa_budget, detection_rate), ...)`` operating points read
        off the ROC curve.
    op_detection, op_false_alarm, op_threshold:
        The detector's *own* operating point: rates at the threshold
        its calibration chose for this cell's confidence level.
    num_truth_bins:
        Size of the scenario's truth set.
    confidence:
        The confidence level this cell's operating point used.
    """

    detector: str
    dataset: str
    scenario: str
    injection_size: float | None
    auc: float
    detection_at_budgets: tuple[tuple[float, float], ...]
    op_detection: float
    op_false_alarm: float
    op_threshold: float
    num_truth_bins: int
    confidence: float = 0.999

    @property
    def is_baseline(self) -> bool:
        """True for the no-injection scenario."""
        return self.injection_size is None


@dataclass(frozen=True)
class ComparisonReport:
    """All grid cells of one :meth:`ComparisonRunner.run` pass.

    Attributes
    ----------
    cells:
        One :class:`ComparisonCell` per
        (detector, dataset, scenario, confidence), ordered datasets
        outermost, then detectors, then scenarios, then confidences.
    confidence:
        The primary confidence level (first of ``confidences``).
    confidences:
        Every confidence level the grid was evaluated at.
    num_fits:
        Number of detector fits the run performed — exactly one per
        (detector, dataset) pair under the fit-once engine.
    elapsed_seconds:
        Wall-clock time of the grid run.
    cell_seconds:
        ``((detector, dataset, seconds), ...)`` per-pair work time
        (fit + all scenario scoring), as measured inside the workers.
    """

    cells: tuple[ComparisonCell, ...]
    confidence: float
    confidences: tuple[float, ...] = ()
    num_fits: int = 0
    elapsed_seconds: float = 0.0
    cell_seconds: tuple[tuple[str, str, float], ...] = field(
        default=(), repr=False
    )

    def __post_init__(self) -> None:
        if not self.confidences:
            object.__setattr__(self, "confidences", (self.confidence,))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    # ------------------------------------------------------------------
    @property
    def detectors(self) -> tuple[str, ...]:
        """Detector names, first-seen order."""
        return _unique(c.detector for c in self.cells)

    @property
    def datasets(self) -> tuple[str, ...]:
        """Dataset names, first-seen order."""
        return _unique(c.dataset for c in self.cells)

    @property
    def scenarios(self) -> tuple[str, ...]:
        """Scenario labels, first-seen order."""
        return _unique(c.scenario for c in self.cells)

    def cell(
        self,
        detector: str,
        dataset: str,
        scenario: str,
        confidence: float | None = None,
    ) -> ComparisonCell:
        """Look one grid cell up by coordinates.

        ``confidence`` may be omitted on single-confidence grids (the
        default); multi-confidence grids require it.
        """
        matches = [
            c
            for c in self.cells
            if c.detector == detector
            and c.dataset == dataset
            and c.scenario == scenario
            and (confidence is None or c.confidence == confidence)
        ]
        if not matches:
            raise ValidationError(
                f"no cell for ({detector!r}, {dataset!r}, {scenario!r}"
                + ("" if confidence is None else f", {confidence!r}")
                + ")"
            )
        if len(matches) > 1:
            raise ValidationError(
                f"({detector!r}, {dataset!r}, {scenario!r}) matches "
                f"{len(matches)} cells; pass confidence= to disambiguate "
                f"(grid levels: {self.confidences})"
            )
        return matches[0]

    def auc(self, detector: str, dataset: str, scenario: str) -> float:
        """The AUC of one grid cell (confidence-independent)."""
        return self.cell(
            detector, dataset, scenario, confidence=self.confidences[0]
        ).auc

    def mean_auc(self, detector: str, injected_only: bool = True) -> float:
        """Mean AUC of one detector across the grid.

        ``injected_only`` restricts to injection scenarios (the
        controlled part of the grid) when any exist.
        """
        values = [
            c.auc
            for c in self.cells
            if c.detector == detector
            and (not injected_only or not c.is_baseline)
        ]
        if not values:  # baseline-only grids
            values = [c.auc for c in self.cells if c.detector == detector]
        if not values:
            raise ValidationError(f"no cells for detector {detector!r}")
        return float(np.mean(values))

    def ranking(self, injected_only: bool = True) -> tuple[str, ...]:
        """Detectors ordered by mean AUC, best first."""
        return tuple(
            sorted(
                self.detectors,
                key=lambda d: -self.mean_auc(d, injected_only=injected_only),
            )
        )

    # ------------------------------------------------------------------
    def table(self) -> str:
        """The AUC comparison table: one row per (dataset, scenario),
        one column per detector, winner starred."""
        detectors = self.detectors
        label_width = max(
            [len("dataset/scenario")]
            + [len(f"{d}/{s}") for d in self.datasets for s in self.scenarios]
        )
        header = f"{'dataset/scenario':<{label_width}}"
        for name in detectors:
            header += f" {name:>14}"
        lines = [header, "-" * len(header)]
        for dataset in self.datasets:
            for scenario in self.scenarios:
                row_cells = {
                    c.detector: c
                    for c in self.cells
                    if c.dataset == dataset and c.scenario == scenario
                }
                if not row_cells:
                    continue
                best = max(row_cells.values(), key=lambda c: c.auc).detector
                line = f"{dataset + '/' + scenario:<{label_width}}"
                for name in detectors:
                    c = row_cells.get(name)
                    if c is None:
                        line += f" {'-':>14}"
                    else:
                        star = "*" if name == best else " "
                        line += f" {c.auc:>12.4f} {star}"
                lines.append(line)
        lines.append("")
        ranking = self.ranking()
        injected = any(not c.is_baseline for c in self.cells)
        scope = "injection scenarios" if injected else "baseline scenarios"
        lines.append(
            f"mean AUC over {scope}: "
            + ", ".join(f"{d}={self.mean_auc(d):.4f}" for d in ranking)
        )
        return "\n".join(lines)

    def operating_table(self) -> str:
        """Per-cell operating points at the calibrated thresholds."""
        header = (
            f"{'detector':<13} {'dataset':<10} {'scenario':<16} "
            f"{'conf':>7} {'AUC':>8} {'det@thr':>8} {'FA@thr':>8} "
            f"{'truth':>6}"
        )
        lines = [header, "-" * len(header)]
        for c in self.cells:
            lines.append(
                f"{c.detector:<13} {c.dataset:<10} {c.scenario:<16} "
                f"{c.confidence:>7.4f} {c.auc:>8.4f} {c.op_detection:>8.3f} "
                f"{c.op_false_alarm:>8.4f} {c.num_truth_bins:>6}"
            )
        return "\n".join(lines)

    def to_json(self, include_timings: bool = True) -> dict:
        """A machine-readable summary (the ``BENCH_*.json`` payload).

        ``include_timings=False`` drops the wall-clock fields, leaving a
        payload that is byte-identical between serial and parallel runs
        of the same grid — the determinism tests dump exactly that.
        """
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "confidence": self.confidence,
            "confidences": list(self.confidences),
            "num_fits": self.num_fits,
            "grid": {
                "detectors": list(self.detectors),
                "datasets": list(self.datasets),
                "scenarios": list(self.scenarios),
                "num_cells": len(self.cells),
            },
            "mean_auc": {d: self.mean_auc(d) for d in self.detectors},
            "ranking": list(self.ranking()),
            "cells": [
                {
                    "detector": c.detector,
                    "dataset": c.dataset,
                    "scenario": c.scenario,
                    "confidence": c.confidence,
                    "injection_size": c.injection_size,
                    "auc": c.auc,
                    "detection_at_budgets": [
                        list(pair) for pair in c.detection_at_budgets
                    ],
                    "op_detection": c.op_detection,
                    "op_false_alarm": c.op_false_alarm,
                    "op_threshold": c.op_threshold,
                    "num_truth_bins": c.num_truth_bins,
                }
                for c in self.cells
            ],
        }
        if include_timings:
            payload["elapsed_seconds"] = self.elapsed_seconds
            payload["cell_seconds"] = [
                {"detector": d, "dataset": ds, "seconds": s}
                for d, ds, s in self.cell_seconds
            ]
        return payload


class ComparisonRunner:
    """Fan a detector-comparison grid out over worker processes.

    Parameters
    ----------
    datasets:
        Evaluation worlds; each (detector, dataset) pair fits once on
        the clean ``link_traffic`` and scores every scenario and
        confidence level with that model.
    detectors:
        Registry names (see :func:`repro.detectors.available`).
    injection_sizes:
        Spike sizes (bytes); each adds one injection scenario.  Empty
        means baseline-only.
    num_injections:
        Spikes per injection scenario (drawn at distinct time bins).
    confidence:
        Confidence level for each detector's own operating point.
    confidences:
        Optional sequence of confidence levels; every scenario's scores
        are read off at each level (the fitted model and the scores are
        shared, so extra levels cost only a threshold lookup).  Defaults
        to ``(confidence,)``; when given, ``confidence`` is ignored and
        the first entry becomes the report's primary level.
    fa_budgets:
        False-alarm budgets at which ROC detection rates are read off.
    min_event_bytes:
        Ground-truth ledger cutoff: events at least this large form the
        baseline truth set.
    workers:
        Process count; ``None`` picks ``min(score_tasks, cpu_count)``
        where score tasks are (detector, dataset, scenario) triples;
        ``1`` runs serially in-process (byte-identical results — tests
        assert it).
    seed:
        Base seed for the deterministic injection placement.
    detector_kwargs:
        Optional per-detector factory overrides,
        e.g. ``{"ewma": {"alpha": 0.3}}``.
    """

    def __init__(
        self,
        datasets: Sequence[Dataset],
        detectors: Sequence[str] = ("subspace", "ewma", "fourier"),
        injection_sizes: Sequence[float] = (),
        num_injections: int = 24,
        confidence: float = 0.999,
        confidences: Sequence[float] | None = None,
        fa_budgets: Sequence[float] = (0.001, 0.01),
        min_event_bytes: float = 0.0,
        workers: int | None = None,
        seed: int = 20040830,
        detector_kwargs: dict[str, dict] | None = None,
    ) -> None:
        from repro import detectors as registry

        if not datasets:
            raise ValidationError("at least one dataset is required")
        names = {d.name for d in datasets}
        if len(names) != len(datasets):
            raise ValidationError("dataset names must be unique")
        if num_injections < 1:
            raise ValidationError(
                f"num_injections must be >= 1, got {num_injections}"
            )
        if confidences is None:
            confidences = (confidence,)
        confidences = tuple(float(c) for c in confidences)
        if not confidences:
            raise ValidationError("confidences must not be empty")
        for level in confidences:
            if not 0.0 < level < 1.0:
                raise ValidationError(
                    f"confidence must lie in (0, 1), got {level}"
                )
        if len(set(confidences)) != len(confidences):
            raise ValidationError(
                f"confidence levels must be distinct, got {confidences}"
            )
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.datasets = list(datasets)
        self.detector_names = registry.resolve_names(detectors)
        self.injection_sizes = [float(s) for s in injection_sizes]
        if any(s == 0.0 for s in self.injection_sizes):
            raise ValidationError("injection sizes must be non-zero")
        if len(set(self.injection_sizes)) != len(self.injection_sizes):
            raise ValidationError(
                "injection sizes must be distinct (duplicates would "
                "produce identically labeled scenarios)"
            )
        self.num_injections = int(num_injections)
        self.confidences = confidences
        self.confidence = confidences[0]
        self.fa_budgets = tuple(float(b) for b in fa_budgets)
        self.min_event_bytes = float(min_event_bytes)
        self.workers = workers
        self.seed = int(seed)
        self.detector_kwargs = dict(detector_kwargs or {})
        unknown = set(self.detector_kwargs) - set(self.detector_names)
        if unknown:
            raise ValidationError(
                f"detector_kwargs for unselected detectors: {sorted(unknown)}"
            )

    # ------------------------------------------------------------------
    def scenarios_for(self, dataset: Dataset) -> tuple[ComparisonScenario, ...]:
        """The scenario columns evaluated for one dataset.

        The baseline scenario is included only when the dataset's
        ground-truth ledger has events at or above ``min_event_bytes``
        (an empty truth set has no ROC).
        """
        scenarios: list[ComparisonScenario] = []
        if _ledger_bins(dataset, self.min_event_bytes).size:
            scenarios.append(
                ComparisonScenario(label="baseline", injection_size=None)
            )
        for index, size in enumerate(self.injection_sizes):
            scenarios.append(
                ComparisonScenario(
                    label=f"inject-{size:.2e}",
                    injection_size=size,
                    num_injections=self.num_injections,
                    seed=self.seed + index,
                )
            )
        labels = [s.label for s in scenarios]
        if len(set(labels)) != len(labels):
            raise ValidationError(
                "injection sizes collide at the scenario-label precision "
                f"({labels}); pass more widely spaced sizes"
            )
        if not scenarios:
            raise ValidationError(
                f"dataset {dataset.name!r} has no ground-truth events and no "
                "injection sizes were given; nothing to evaluate"
            )
        return tuple(scenarios)

    def run(self) -> ComparisonReport:
        """Evaluate the whole grid; one :class:`ComparisonCell` per cell.

        Cells are ordered datasets-outermost, then detectors (the order
        given at construction), then scenarios, then confidences —
        independent of the worker count.
        """
        from repro import detectors as registry

        start = time.perf_counter()
        scenarios_by_dataset = {
            dataset.name: self.scenarios_for(dataset)
            for dataset in self.datasets
        }
        pairs = [
            (dataset, name)
            for dataset in self.datasets
            for name in self.detector_names
        ]
        # Resolve every factory up front so unknown names fail loudly in
        # the parent, not inside a worker.
        for name in self.detector_names:
            registry.get_factory(name)
        # Stage 2 has one task per (pair, scenario), so parallelism is
        # sized to the scoring fan-out, not just the fit fan-out.
        num_score_tasks = sum(
            len(scenarios_by_dataset[dataset.name]) for dataset, _ in pairs
        )
        workers = self.workers
        if workers is None:
            workers = min(num_score_tasks, os.cpu_count() or 1)

        if workers <= 1 or num_score_tasks == 1:
            outputs = self._run_serial(pairs, scenarios_by_dataset)
        else:
            outputs = self._run_parallel(pairs, scenarios_by_dataset, workers)

        cells: list[ComparisonCell] = []
        timings: list[tuple[str, str, float]] = []
        for (dataset, name), (rows, seconds) in zip(pairs, outputs):
            cells.extend(rows)
            timings.append((name, dataset.name, seconds))
        return ComparisonReport(
            cells=tuple(cells),
            confidence=self.confidence,
            confidences=self.confidences,
            num_fits=len(pairs),
            elapsed_seconds=time.perf_counter() - start,
            cell_seconds=tuple(timings),
        )

    # ------------------------------------------------------------------
    def _fit_task(self, dataset_ref: "_DatasetRef", name: str) -> "_FitTask":
        # The factory travels with the task so detectors registered at
        # runtime survive spawn-start workers, which re-import a
        # registry holding only the built-ins.
        from repro import detectors as registry

        return _FitTask(
            detector=name,
            factory=registry.get_factory(name),
            detector_kwargs=self.detector_kwargs.get(name, {}),
            dataset=dataset_ref,
            confidence=self.confidence,
        )

    def _score_task(
        self,
        dataset_ref: "_DatasetRef",
        name: str,
        scenario: ComparisonScenario,
        model: "SharedBlob | None",
    ) -> "_ScoreTask":
        return _ScoreTask(
            detector=name,
            dataset=dataset_ref,
            model=model,
            scenario=scenario,
            confidences=self.confidences,
            fa_budgets=self.fa_budgets,
            min_event_bytes=self.min_event_bytes,
        )

    def _run_serial(self, pairs, scenarios_by_dataset):
        """In-process execution: same fit/score kernels, no pickling."""
        outputs = []
        for dataset, name in pairs:
            ref = _DatasetRef(inline=dataset)
            fit_start = time.perf_counter()
            detector = _fit_detector(self._fit_task(ref, name))
            seconds = time.perf_counter() - fit_start
            rows: list[ComparisonCell] = []
            for scenario in scenarios_by_dataset[dataset.name]:
                task = self._score_task(ref, name, scenario, model=None)
                scenario_rows, scenario_seconds = _score_scenario(
                    task, detector
                )
                rows.extend(scenario_rows)
                seconds += scenario_seconds
            outputs.append((tuple(rows), seconds))
        return outputs

    def _run_parallel(self, pairs, scenarios_by_dataset, workers):
        """Two-stage shared-memory execution over a process pool."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        segments: list = []  # SharedMemory blocks to unlink at the end
        try:
            dataset_refs = {
                dataset.name: _share_dataset(dataset, segments)
                for dataset in self.datasets
            }
            fit_tasks = [
                self._fit_task(dataset_refs[dataset.name], name)
                for dataset, name in pairs
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # Stage 1: every (detector, dataset) pair fits exactly
                # once; the pickled fitted state comes back to the
                # parent, which parks it in shared memory.
                fit_outputs = list(pool.map(_run_fit_task, fit_tasks))
                models: dict[tuple[str, str], SharedBlob] = {}
                fit_seconds: dict[tuple[str, str], float] = {}
                for (dataset, name), (blob, seconds) in zip(
                    pairs, fit_outputs
                ):
                    models[(dataset.name, name)] = share_blob(
                        blob, segments
                    )
                    fit_seconds[(dataset.name, name)] = seconds
                # Stage 2: scoring tasks carry only scenario metadata
                # plus shared-memory names — no arrays are pickled.
                score_tasks = [
                    self._score_task(
                        dataset_refs[dataset.name],
                        name,
                        scenario,
                        models[(dataset.name, name)],
                    )
                    for dataset, name in pairs
                    for scenario in scenarios_by_dataset[dataset.name]
                ]
                score_outputs = list(pool.map(_run_score_task, score_tasks))
            outputs = []
            cursor = 0
            for dataset, name in pairs:
                rows: list[ComparisonCell] = []
                seconds = fit_seconds[(dataset.name, name)]
                for _ in scenarios_by_dataset[dataset.name]:
                    scenario_rows, scenario_seconds = score_outputs[cursor]
                    rows.extend(scenario_rows)
                    seconds += scenario_seconds
                    cursor += 1
                outputs.append((tuple(rows), seconds))
            return outputs
        except BrokenProcessPool as err:
            raise SupervisionError(
                f"a comparison worker died mid-task: {err}"
            ) from err
        finally:
            release(segments)


# ----------------------------------------------------------------------
# Datasets and fitted detectors over shared memory (the segments are
# :mod:`repro.pipeline.shm`'s).  Everything below must stay module-level
# and picklable; the worker side caches the unpickled detectors per
# process.


@dataclass(frozen=True)
class _DatasetMeta:
    """The picklable-in-O(1) part of a dataset a scoring task needs."""

    name: str
    bin_seconds: float
    num_bins: int
    num_links: int
    num_flows: int
    true_events: tuple


@dataclass(frozen=True)
class _DatasetRef:
    """Either a real in-process dataset or shared-memory coordinates."""

    inline: Dataset | None = None
    meta: _DatasetMeta | None = None
    link_traffic: SharedArray | None = None
    routing_matrix: SharedArray | None = None


class _RoutingView:
    """Duck-types the one routing attribute :func:`scenario_trace` uses."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix


class _DatasetView:
    """A :class:`Dataset` stand-in backed by shared-memory arrays."""

    __slots__ = (
        "name",
        "bin_seconds",
        "num_bins",
        "num_links",
        "num_flows",
        "true_events",
        "link_traffic",
        "routing",
    )

    def __init__(
        self,
        meta: _DatasetMeta,
        link_traffic: np.ndarray,
        routing_matrix: np.ndarray,
    ) -> None:
        self.name = meta.name
        self.bin_seconds = meta.bin_seconds
        self.num_bins = meta.num_bins
        self.num_links = meta.num_links
        self.num_flows = meta.num_flows
        self.true_events = meta.true_events
        self.link_traffic = link_traffic
        self.routing = _RoutingView(routing_matrix)


@dataclass(frozen=True)
class _FitTask:
    detector: str
    factory: Callable
    detector_kwargs: dict
    dataset: _DatasetRef
    confidence: float


@dataclass(frozen=True)
class _ScoreTask:
    detector: str
    dataset: _DatasetRef
    model: SharedBlob | None
    scenario: ComparisonScenario
    confidences: tuple[float, ...]
    fa_budgets: tuple[float, ...]
    min_event_bytes: float


#: Per-process cache of unpickled detectors.
_DETECTOR_CACHE: dict[str, object] = {}


def _dataset_meta(dataset: Dataset) -> _DatasetMeta:
    return _DatasetMeta(
        name=dataset.name,
        bin_seconds=dataset.bin_seconds,
        num_bins=dataset.num_bins,
        num_links=dataset.num_links,
        num_flows=dataset.num_flows,
        true_events=tuple(dataset.true_events),
    )


def _share_dataset(dataset: Dataset, segments: list) -> _DatasetRef:
    """Park one dataset's big arrays in shared memory (parent side)."""
    return _DatasetRef(
        meta=_dataset_meta(dataset),
        link_traffic=share_array(dataset.link_traffic, segments),
        routing_matrix=share_array(
            np.asarray(dataset.routing.matrix, dtype=np.float64), segments
        ),
    )


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = np.asarray(array, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def _resolve_dataset(ref: _DatasetRef) -> _DatasetView:
    """The read-only view of a dataset a task should compute on.

    Serial (inline) and parallel (shared-memory) runs both resolve to a
    :class:`_DatasetView` over read-only arrays, so an input-mutating
    detector fails loudly — and identically — under every worker
    layout.
    """
    if ref.inline is not None:
        dataset = ref.inline
        return _DatasetView(
            _dataset_meta(dataset),
            _readonly_view(dataset.link_traffic),
            _readonly_view(np.asarray(dataset.routing.matrix)),
        )
    return _DatasetView(
        ref.meta,
        attach_array(ref.link_traffic),
        attach_array(ref.routing_matrix),
    )


def _resolve_detector(blob: SharedBlob):
    """Unpickle (and cache per process) a fitted detector blob."""
    detector = _DETECTOR_CACHE.get(blob.name)
    if detector is None:
        segment = attach_segment(blob.name)
        detector = pickle.loads(bytes(segment.buf[: blob.size]))
        _DETECTOR_CACHE[blob.name] = detector
    return detector


# ----------------------------------------------------------------------
# The fit/score kernels.  Serial and parallel runs execute exactly the
# same code on bit-identical inputs, which is what makes the reports
# byte-identical across worker layouts.


def _fit_detector(task: _FitTask):
    """Construct and fit one detector on one dataset's clean trace."""
    dataset = _resolve_dataset(task.dataset)
    kwargs = {
        "confidence": task.confidence,
        "bin_seconds": dataset.bin_seconds,
    }
    kwargs.update(task.detector_kwargs)
    detector = task.factory(**kwargs)
    detector.fit(dataset.link_traffic)
    return detector


def _run_fit_task(task: _FitTask) -> tuple[bytes, float]:
    """Stage-1 worker entry: fit, then hand the state back pickled."""
    start = time.perf_counter()
    detector = _fit_detector(task)
    blob = pickle.dumps(detector, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, time.perf_counter() - start


def _score_scenario(
    task: _ScoreTask, detector
) -> tuple[tuple[ComparisonCell, ...], float]:
    """Score one scenario once; read every confidence level off it."""
    start = time.perf_counter()
    dataset = _resolve_dataset(task.dataset)
    trace, truth = scenario_trace(
        dataset, task.scenario, task.min_event_bytes
    )
    scores = np.atleast_1d(
        np.asarray(detector.score(trace), dtype=np.float64)
    )
    curve = roc_curve(scores, truth)
    budgets = tuple(
        (budget, curve.detection_at(budget)) for budget in task.fa_budgets
    )
    rows = []
    for level in task.confidences:
        if hasattr(detector, "threshold_at"):
            threshold = float(detector.threshold_at(level))
        else:  # minimal Detector protocol: fall back to detect()
            threshold = float(detector.detect(trace, confidence=level).threshold)
        op_det, op_fa = operating_point(scores, truth, threshold)
        rows.append(
            ComparisonCell(
                detector=task.detector,
                dataset=dataset.name,
                scenario=task.scenario.label,
                injection_size=task.scenario.injection_size,
                auc=curve.auc,
                detection_at_budgets=budgets,
                op_detection=op_det,
                op_false_alarm=op_fa,
                op_threshold=threshold,
                num_truth_bins=int(truth.size),
                confidence=level,
            )
        )
    return tuple(rows), time.perf_counter() - start


def _run_score_task(
    task: _ScoreTask,
) -> tuple[tuple[ComparisonCell, ...], float]:
    """Stage-2 worker entry: attach shared state, score one scenario."""
    detector = _resolve_detector(task.model)
    return _score_scenario(task, detector)


# ----------------------------------------------------------------------


def _unique(items) -> tuple[str, ...]:
    seen: list[str] = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return tuple(seen)


def _ledger_bins(dataset, min_event_bytes: float) -> np.ndarray:
    """Ground-truth anomaly bins at or above the ledger cutoff.

    Every bin an event covers counts — a SQUARE or RAMP anomaly of
    ``duration_bins`` marks its whole span, so detectors flagging the
    later bins of an ongoing anomaly are not charged false alarms (and
    injections are never drawn inside one).
    """
    bins: set[int] = set()
    for event in dataset.true_events:
        if abs(event.amplitude_bytes) >= min_event_bytes:
            bins.update(range(event.time_bin, event.last_bin + 1))
    return np.asarray(sorted(bins), dtype=np.int64)


def scenario_trace(
    dataset,
    scenario: ComparisonScenario,
    min_event_bytes: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize one scenario: ``(link_trace, truth_bins)``.

    Deterministic in the scenario seed — every detector (and every
    worker layout) sees byte-identical traces.  Injection cells are
    drawn at distinct time bins outside the ledger truth set, each
    adding ``injection_size`` bytes to one OD flow's links.  ``dataset``
    may be a :class:`~repro.datasets.dataset.Dataset` or the engine's
    shared-memory view of one.
    """
    truth = _ledger_bins(dataset, min_event_bytes)
    if scenario.injection_size is None:
        if truth.size == 0:
            raise ValidationError(
                f"dataset {dataset.name!r} has no ground-truth events at or "
                f"above {min_event_bytes:.3g} bytes; baseline scenario is "
                "undefined"
            )
        return dataset.link_traffic, truth

    candidates = np.setdiff1d(
        np.arange(dataset.num_bins, dtype=np.int64), truth
    )
    if candidates.size < scenario.num_injections:
        raise ValidationError(
            f"dataset {dataset.name!r} has only {candidates.size} "
            f"injectable bins but {scenario.num_injections} were requested"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [scenario.seed, zlib.crc32(dataset.name.encode("utf-8"))]
        )
    )
    bins = np.sort(
        rng.choice(candidates, size=scenario.num_injections, replace=False)
    )
    flows = rng.integers(0, dataset.num_flows, size=scenario.num_injections)
    trace = dataset.link_traffic.copy()
    trace[bins] += (
        scenario.injection_size * dataset.routing.matrix[:, flows].T
    )
    return trace, np.union1d(truth, bins)
