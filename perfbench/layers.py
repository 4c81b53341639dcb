"""The layers a traced run times, named after the program's modules.

Each entry of :data:`TARGETS` is a public function of the program; the
traced process wraps it with :class:`spans.Tracer`.  A module-level
function is wrapped in the module that calls it, because callers bind
the name at import time (``identify_block`` is looked up in
``repro.service.engine`` and in ``repro.pipeline.pipeline``, not in
``repro.core.identification``).

:class:`LayerProbe` also counts work at the same boundaries.  Every
count is a *mark* ``(span index, key, value, tag)`` tied to the span of
the call that did the work, so the parent keeps exactly the marks of the
requests it measured; ``tag`` identifies the tracker or lifecycle object
the work belongs to.
"""

from __future__ import annotations

import os

import numpy as np

#: ``(module, attribute path, span name)`` of every timed function.
TARGETS = (
    ("repro.service.tenants", "MultiTenantService.ingest_block", "tenants.ingest_block"),
    ("repro.service.engine", "DetectionService.ingest_block", "engine.ingest_block"),
    ("repro.service.engine", "DetectionService.metrics_text", "engine.metrics_text"),
    ("repro.service.events", "EventLog.emit_many", "events.emit_many"),
    ("repro.service.metrics", "MetricsRegistry.render", "metrics.render"),
    ("repro.service.lifecycle", "ModelLifecycleManager.append_rows", "lifecycle.append_rows"),
    ("repro.service.lifecycle", "ModelLifecycleManager.fit_candidate", "lifecycle.fit_candidate"),
    ("repro.service.lifecycle", "ModelLifecycleManager.checkpoint", "lifecycle.checkpoint"),
    ("repro.core.incremental", "IncrementalSubspaceTracker.update_block", "tracker.update_block"),
    ("repro.core.incremental", "IncrementalSubspaceTracker.drift_from", "tracker.drift_from"),
    ("repro.core.subspace", "SubspaceModel.score_block", "subspace.score_block"),
    ("repro.pipeline.sharded", "score_moments", "subspace.score_moments"),
    ("repro.pipeline.sharded", "separate_axes_from_moments", "subspace.separate_axes_from_moments"),
    ("repro.service.engine", "identify_block", "identification.identify_block"),
    ("repro.pipeline.pipeline", "identify_block", "identification.identify_block"),
    ("repro.core.suffstats", "SufficientStats.from_block", "suffstats.from_block"),
    ("repro.core.suffstats", "SufficientStats.merge", "suffstats.merge"),
    ("repro.core.suffstats", "SufficientStats.finalize", "suffstats.finalize"),
    ("repro.core.pca", "PCA.fit_from_stats", "pca.fit_from_stats"),
    ("repro.pipeline.sharded", "TemporalCoordinator.fit", "sharded.fit"),
    ("repro.pipeline.sharded", "TemporalCoordinator.fit_from_stats", "sharded.fit_from_stats"),
    ("repro.pipeline.pipeline", "DetectionPipeline.detect", "pipeline.detect"),
)

#: Every span name, once, in table order.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

#: Spans whose calls also count the rows they processed.
ROW_COUNTED = (
    "engine.ingest_block",
    "subspace.score_block",
    "identification.identify_block",
)


def _rows(block) -> int:
    return 1 if np.ndim(block) == 1 else int(np.shape(block)[0])


class LayerProbe:
    """Wraps every target and records marks; see the module docstring."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.marks: list[tuple[int, str, float, int]] = []
        self.labels: dict[int, str] = {}

    def label(self, obj, name: str) -> None:
        """Name an object whose marks carry its tag (a tenant's lifecycle)."""
        self.labels[id(obj)] = name

    def install(self) -> None:
        hooks = {
            "engine.ingest_block": {"after": self._accepted_rows},
            "subspace.score_block": {"after": self._argument_rows(1)},
            "identification.identify_block": {"after": self._argument_rows(2)},
            "tracker.update_block": {
                "before": self._tracker_before,
                "after": self._tracker_after,
            },
            "tracker.drift_from": {"after": self._tracker_read},
            "events.emit_many": {"after": self._emitted},
            "lifecycle.fit_candidate": {"after": self._fitted},
            "lifecycle.checkpoint": {"after": self._checkpointed},
        }
        for module, path, name in TARGETS:
            self.tracer.wrap_path(module, path, name, **hooks.get(name, {}))

    def export(self) -> dict:
        return {
            "marks": self.marks,
            "labels": {str(key): value for key, value in self.labels.items()},
        }

    # ------------------------------------------------------------------
    def _mark(self, index: int, key: str, value, obj=None) -> None:
        tag = 0 if obj is None else id(obj)
        self.marks.append((index, key, float(value), tag))

    def _accepted_rows(self, args, kwargs, result, state, index) -> None:
        self._mark(index, "rows", result.accepted)

    def _argument_rows(self, position: int):
        def hook(args, kwargs, result, state, index):
            block = args[position] if len(args) > position else kwargs["measurements"]
            self._mark(index, "rows", _rows(block))

        return hook

    def _tracker_before(self, args, kwargs):
        tracker, block = args[0], args[1]
        return tracker.since_refresh, _rows(block)

    def _tracker_after(self, args, kwargs, result, state, index) -> None:
        # A refresh resets ``since_refresh``; without one it advances by
        # exactly the rows folded.
        before, folded = state
        if folded and args[0].since_refresh != before + folded:
            self._mark(index, "refresh", 1, args[0])

    def _tracker_read(self, args, kwargs, result, state, index) -> None:
        if self.tracer.innermost() == "engine.metrics_text":
            self._mark(index, "read", 1, args[0])

    def _emitted(self, args, kwargs, result, state, index) -> None:
        self._mark(index, "emitted", len(result))

    def _fitted(self, args, kwargs, result, state, index) -> None:
        self._mark(index, "history_rows", result[1], args[0])

    def _checkpointed(self, args, kwargs, result, state, index) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._mark(index, "checkpoint_bytes", os.path.getsize(path), args[0])
        self._mark(index, "history_rows", args[0].rows, args[0])
