"""The streaming/batch detection pipeline (the library's front door).

Wires the paper's stages — link measurements → traffic matrix → PCA
subspace separation → Q-statistic detection → identification and
quantification — into composable entry points:

* :class:`~repro.pipeline.pipeline.DetectionPipeline` — ``fit`` /
  ``detect`` / ``stream`` over one network's measurements, fully
  vectorized;
* :class:`~repro.pipeline.batch.BatchRunner` — scenario grids
  (datasets × injection sizes × confidence levels) sharing fitted
  models and thresholds computed in one vectorized pass;
* :class:`~repro.pipeline.compare.ComparisonRunner` — multi-detector
  comparison grids (detectors × datasets × injection scenarios) fanned
  out over worker processes and folded through the ROC harness into an
  AUC comparison table (the paper's Fig. 10, generalized);
* :class:`~repro.pipeline.streaming.StreamingDetector` — windowed
  online detection backed by the incremental subspace tracker;
* :class:`~repro.pipeline.sharded.TemporalCoordinator` /
  :class:`~repro.pipeline.sharded.SpatialCoordinator` — the sharded
  detection plane: coordinator/worker fit fan-out over time chunks
  (exact, via mergeable sufficient statistics) or link zones (with a
  pluggable alarm-fusion stage);
* :class:`~repro.pipeline.supervision.SupervisedPool` /
  :class:`~repro.pipeline.faults.FaultInjector` /
  :func:`~repro.pipeline.chaos.run_chaos_suite` — the fault-tolerance
  layer: per-task deadlines, bounded retry, worker-death recovery and
  degraded-mode (``partial``) fits, plus the deterministic fault
  injection and chaos harness that exercise them (``repro chaos run``;
  see ``docs/robustness.md``).

**Model lifecycles.**  The pipeline offers four ways to keep a model
current, from cheapest to most thorough:

1. *fit once* — the paper's weekly regime: one batch fit, applied as a
   fixed projection (``DetectionPipeline.fit`` + ``detect``);
2. *exponential fold* — ``stream`` / ``StreamingDetector`` fold each
   window into exponentially weighted moments and refresh the ``m × m``
   eigendecomposition per window (or on an arrival cadence) — the model
   follows drift without ever refitting from scratch;
3. *periodic refit* — :class:`~repro.core.online.OnlineSubspaceDetector`
   exposes the same engine per-arrival with a configurable refresh
   cadence;
4. *sharded refit* — ``TemporalCoordinator.fit`` rebuilds the model
   from per-chunk sufficient statistics (bit-identical to a monolithic
   fit), out-of-core or fanned out over workers.

See ``docs/pipeline.md``, ``docs/detectors.md`` and ``docs/sharding.md``
for the guides.
"""

from repro._lazy import lazy_exports

# Resolved on first access: importing the sharded fit loads neither the
# comparison engine, the chaos harness nor the validation code behind
# the batch runner.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.pipeline.batch": ("BatchReport", "BatchRunner", "ScenarioResult"),
        "repro.pipeline.compare": (
            "ComparisonCell",
            "ComparisonReport",
            "ComparisonRunner",
            "ComparisonScenario",
        ),
        "repro.pipeline.chaos": ("ChaosOutcome", "ChaosReport", "run_chaos_suite"),
        "repro.pipeline.faults": ("FaultInjector", "FaultPlan", "WorkerFault"),
        "repro.pipeline.pipeline": ("DetectionPipeline", "PipelineResult"),
        "repro.pipeline.sharded": (
            "FAULT_POLICIES",
            "FUSION_MODES",
            "ShardReport",
            "SpatialCoordinator",
            "SpatialShardedModel",
            "SpatialShardFit",
            "TemporalCoordinator",
            "TemporalShardFit",
            "partition_links",
            "temporal_fit_matches_monolithic",
        ),
        "repro.pipeline.streaming": ("StreamingDetector", "StreamWindow"),
        "repro.pipeline.supervision": (
            "FaultReport",
            "PoolRun",
            "SupervisedPool",
            "TaskFault",
        ),
    },
)

__all__ = [
    "DetectionPipeline",
    "PipelineResult",
    "BatchRunner",
    "BatchReport",
    "ScenarioResult",
    "ComparisonRunner",
    "ComparisonReport",
    "ComparisonCell",
    "ComparisonScenario",
    "StreamingDetector",
    "StreamWindow",
    "ChaosOutcome",
    "ChaosReport",
    "FAULT_POLICIES",
    "FUSION_MODES",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "PoolRun",
    "ShardReport",
    "SpatialCoordinator",
    "SpatialShardedModel",
    "SpatialShardFit",
    "SupervisedPool",
    "TaskFault",
    "TemporalCoordinator",
    "TemporalShardFit",
    "WorkerFault",
    "partition_links",
    "run_chaos_suite",
    "temporal_fit_matches_monolithic",
]
