"""The chaos harness: every fault kind against every detection plane.

``repro chaos run`` drives this module: the scenario suite's traces are
pushed through the temporal parallel fit, the spatial zone fit and the
service checkpoint/restore cycle while :mod:`repro.pipeline.faults`
injects one fault at a time — worker crashes, hung tasks, corrupted
checkpoints: 5 cells per scenario.  The harness asserts the robustness
contract end to end:

* every run **terminates** with a typed report (no hangs — hung tasks
  are bounded by the supervised pool's deadline — and no unhandled
  crashes);
* under the ``retry`` policy, a run whose faults are transient is
  **bit-identical** to the fault-free run on the same trace;
* under the ``partial`` policy, permanently lost work yields a fit
  with ``coverage < 1`` and a populated fault report instead of an
  exception;
* a spatial plane that loses a zone keeps alarming with a
  quorum-adjusted vote and a recall close to the monolithic
  detector's (:func:`measure_degraded_recall` pins the gap over the
  suite);
* under every policy, the service refuses a corrupted checkpoint with
  a typed error, and a fresh checkpoint restores bit for bit.

Everything is deterministic — seeded backoff jitter, picklable fault
plans keyed on ``(stage, task, attempt)`` — so a failure observed in CI
replays exactly.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.detection import SPEDetector
from repro.exceptions import ReproError, ValidationError
from repro.pipeline.faults import FaultInjector
from repro.pipeline.sharded import (
    SpatialCoordinator,
    TemporalCoordinator,
)
from repro.scenarios.spec import compile_scenario
from repro.scenarios.suite import get_suite
from repro.validation.roc import roc_curve

__all__ = [
    "CHAOS_FAULTS",
    "CHAOS_PLANES",
    "ChaosOutcome",
    "ChaosReport",
    "measure_degraded_recall",
    "run_chaos_suite",
]

#: Version of the :meth:`ChaosReport.to_json` payload layout.
CHAOS_SCHEMA_VERSION = 1

#: Fault kinds the harness injects, and the planes each one targets.
CHAOS_FAULTS = ("kill_worker", "hang_task", "corrupt_checkpoint")

#: Detection-plane entry points the harness drives.
CHAOS_PLANES = ("temporal", "spatial", "service")

#: Which planes each fault kind applies to.  Worker faults hit the
#: supervised pools; checkpoint corruption hits the service-restart
#: cycle.
_FAULT_PLANES = {
    "kill_worker": ("temporal", "spatial"),
    "hang_task": ("temporal", "spatial"),
    "corrupt_checkpoint": ("service",),
}


@dataclass(frozen=True)
class ChaosOutcome:
    """One (scenario, plane, fault, policy) cell of the chaos matrix."""

    scenario: str
    plane: str
    fault: str
    policy: str
    terminated: bool  # run ended with a typed report (or typed error)
    recovered: bool  # fit produced a model (vs a typed abort)
    bit_identical: bool | None  # vs fault-free run; None when n/a
    coverage: float | None  # report coverage; None on typed abort
    faults_recorded: int
    elapsed_seconds: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Did this cell uphold the robustness contract?"""
        if not self.terminated:
            return False
        if self.plane == "service":
            # The checkpoint cycle takes no fault policy: it must
            # recover bit for bit under each one.
            return self.recovered and self.bit_identical is True
        if self.policy == "retry":
            # Transient faults must be retried to a bit-identical fit.
            return self.recovered and self.bit_identical is not False
        if self.policy == "partial":
            # Permanent losses must degrade, not abort.
            return self.recovered and (
                self.coverage is not None and self.coverage <= 1.0
            )
        # fail-fast: a typed abort IS the contract under injected faults.
        return True

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "plane": self.plane,
            "fault": self.fault,
            "policy": self.policy,
            "terminated": self.terminated,
            "recovered": self.recovered,
            "bit_identical": self.bit_identical,
            "coverage": self.coverage,
            "faults_recorded": self.faults_recorded,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ChaosReport:
    """All cells of one chaos run, plus the degraded-recall probe."""

    suite: str
    policy: str
    outcomes: tuple[ChaosOutcome, ...]
    degraded_recall: dict | None = None
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def failures(self) -> tuple[ChaosOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema_version": CHAOS_SCHEMA_VERSION,
            "suite": self.suite,
            "policy": self.policy,
            "cells": len(self.outcomes),
            "failures": len(self.failures),
            "all_ok": self.all_ok,
            "degraded_recall": self.degraded_recall,
            "outcomes": [o.to_json() for o in self.outcomes],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def table(self) -> str:
        header = (
            f"{'scenario':<20} {'plane':<9} {'fault':<19} "
            f"{'ok':<4} {'recov':<6} {'biteq':<6} {'cover':<6} faults"
        )
        lines = [
            f"chaos matrix — suite={self.suite!r} policy={self.policy!r}",
            header,
            "-" * len(header),
        ]
        for o in self.outcomes:
            biteq = "-" if o.bit_identical is None else str(o.bit_identical)
            cover = "-" if o.coverage is None else f"{o.coverage:.2f}"
            lines.append(
                f"{o.scenario:<20} {o.plane:<9} {o.fault:<19} "
                f"{str(o.ok):<4} {str(o.recovered):<6} {biteq:<6} "
                f"{cover:<6} {o.faults_recorded}"
            )
        if self.degraded_recall is not None:
            d = self.degraded_recall
            lines.append("")
            lines.append(
                f"degraded recall (zone {d['dead_zone']} of "
                f"{d['num_zones']} dead, fusion={d['fusion']}): "
                f"{d['degraded']:.3f} vs monolithic {d['monolithic']:.3f} "
                f"(gap {d['gap']:+.3f}, tolerance {d['tolerance']:.3f}, "
                f"{'OK' if d['within_tolerance'] else 'FAIL'})"
            )
        lines.append("")
        lines.append(
            f"{len(self.outcomes)} cells, {len(self.failures)} failure(s), "
            f"{self.elapsed_seconds:.1f}s"
        )
        return "\n".join(lines)


def _detectors_match(a: SPEDetector, b: SPEDetector) -> bool:
    """Bit-exact model equality (mean, basis, spectrum, rank, limit)."""
    pa, pb = a.model.pca, b.model.pca
    return (
        np.array_equal(pa.mean, pb.mean)
        and np.array_equal(pa.components, pb.components)
        and np.array_equal(pa.captured_variance(), pb.captured_variance())
        and a.normal_rank == b.normal_rank
        and a.threshold == b.threshold
    )


def _worker_plan(fault: str, stage: str, policy: str):
    """The fault plan of one worker-fault cell.

    Transient (one attempt) under ``retry`` so recovery is expected;
    permanent under ``partial``/``fail-fast`` so the policy's terminal
    behavior — degrade or typed abort — is what gets exercised.
    """
    attempts = 1 if policy == "retry" else 99
    if fault == "kill_worker":
        return FaultInjector.kill_worker(task=0, stage=stage, attempts=attempts)
    return FaultInjector.hang_task(
        task=0, stage=stage, attempts=attempts, seconds=60.0
    )


def _run_temporal(traffic, fault, policy, deadline, workers):
    clean = TemporalCoordinator(num_shards=workers * 2, workers=1).fit(traffic)
    plan = _worker_plan(fault, "stats", policy)
    coordinator = TemporalCoordinator(
        num_shards=workers * 2,
        workers=workers,
        fault_policy=policy,
        task_deadline=deadline,
        max_retries=1,
        backoff_base=0.01,
        fault_plan=plan,
    )
    fit = coordinator.fit(traffic)
    report = fit.report
    return (
        True,
        _detectors_match(fit.detector, clean.detector),
        report.coverage,
        0 if report.fault is None else len(report.fault.faults),
    )


def _run_spatial(traffic, fault, policy, deadline, workers):
    num_zones = min(4, traffic.shape[1])
    plan = _worker_plan(fault, "zones", policy)
    coordinator = SpatialCoordinator(
        num_zones=num_zones,
        workers=min(workers, num_zones),
        normal_rank=2,
        fault_policy=policy,
        task_deadline=deadline,
        max_retries=1,
        backoff_base=0.01,
        fault_plan=plan,
    )
    fit = coordinator.fit(traffic)
    clean = SpatialCoordinator(
        num_zones=num_zones, workers=1, normal_rank=2
    ).fit(traffic)
    identical = fit.report.coverage == 1.0 and all(
        _detectors_match(a, b)
        for a, b in zip(fit.model.detectors, clean.model.detectors)
    )
    report = fit.report
    return (
        True,
        identical,
        report.coverage,
        0 if report.fault is None else len(report.fault.faults),
    )


def _run_service(traffic, workdir):
    """Checkpoint/restore cycle of the always-on service's lifecycle."""
    from repro.exceptions import CheckpointError, ServiceError
    from repro.service.lifecycle import ModelLifecycleManager

    lifecycle = ModelLifecycleManager(normal_rank=2)
    lifecycle.bootstrap(traffic[: max(64, traffic.shape[0] // 2)])
    path = Path(workdir) / "service.ckpt"
    lifecycle.checkpoint(path)
    FaultInjector.corrupt_checkpoint(path)
    try:
        ModelLifecycleManager.restore(path)
    except (CheckpointError, ServiceError):
        pass  # a typed refusal is the contract for a damaged checkpoint
    else:  # a damaged file that restores is not a recovery
        return False, None, None, 1
    # An atomic re-checkpoint over the damaged file must restore warm.
    lifecycle.checkpoint(path)
    restored = ModelLifecycleManager.restore(path)
    identical = _detectors_match(
        lifecycle.current.detector, restored.current.detector
    )
    return True, identical, 1.0, 1


def run_chaos_suite(
    suite: str = "core",
    policy: str = "retry",
    faults: tuple[str, ...] = CHAOS_FAULTS,
    planes: tuple[str, ...] = CHAOS_PLANES,
    max_scenarios: int | None = None,
    workers: int = 2,
    deadline: float = 5.0,
    degraded_tolerance: float = 0.05,
    probe_degraded_recall: bool = True,
) -> ChaosReport:
    """Drive the full chaos matrix over a scenario suite.

    Every cell must *terminate* — either with a fitted model and a
    typed fault report, or (under ``fail-fast``) with a typed
    :class:`~repro.exceptions.ReproError` — never hang or crash the
    process.  See :class:`ChaosOutcome.ok` for the per-policy contract.
    """
    begin = time.perf_counter()
    if policy not in ("fail-fast", "retry", "partial"):
        raise ValidationError(
            f"unknown chaos policy {policy!r}; "
            "choose 'fail-fast', 'retry' or 'partial'"
        )
    unknown = set(faults) - set(CHAOS_FAULTS)
    if unknown:
        raise ValidationError(
            f"unknown fault kind(s) {sorted(unknown)}; "
            f"choose from {CHAOS_FAULTS}"
        )
    unknown = set(planes) - set(CHAOS_PLANES)
    if unknown:
        raise ValidationError(
            f"unknown plane(s) {sorted(unknown)}; "
            f"choose from {CHAOS_PLANES}"
        )
    specs = get_suite(suite) if isinstance(suite, str) else tuple(suite)
    if max_scenarios is not None:
        specs = specs[:max_scenarios]

    outcomes: list[ChaosOutcome] = []
    for spec in specs:
        traffic = compile_scenario(spec).dataset.link_traffic
        for fault in faults:
            for plane in _FAULT_PLANES[fault]:
                if plane not in planes:
                    continue
                cell_begin = time.perf_counter()
                terminated = True
                recovered = False
                bit_identical: bool | None = None
                coverage: float | None = None
                recorded = 0
                detail = ""
                try:
                    with tempfile.TemporaryDirectory() as workdir:
                        if plane == "temporal":
                            out = _run_temporal(
                                traffic, fault, policy, deadline, workers
                            )
                        elif plane == "spatial":
                            out = _run_spatial(
                                traffic, fault, policy, deadline, workers
                            )
                        else:
                            out = _run_service(traffic, workdir)
                    recovered, bit_identical, coverage, recorded = out
                except ReproError as err:
                    # A typed abort: the run terminated with a report.
                    detail = f"{type(err).__name__}: {err}"
                except Exception as err:  # noqa: BLE001 - contract breach
                    terminated = False
                    detail = f"untyped {type(err).__name__}: {err}"
                outcomes.append(
                    ChaosOutcome(
                        scenario=spec.name,
                        plane=plane,
                        fault=fault,
                        policy=policy,
                        terminated=terminated,
                        recovered=recovered,
                        bit_identical=bit_identical,
                        coverage=coverage,
                        faults_recorded=recorded,
                        elapsed_seconds=time.perf_counter() - cell_begin,
                        detail=detail,
                    )
                )

    degraded = None
    if probe_degraded_recall:
        degraded = measure_degraded_recall(
            suite=specs, tolerance=degraded_tolerance
        )
    return ChaosReport(
        suite=suite if isinstance(suite, str) else "custom",
        policy=policy,
        outcomes=tuple(outcomes),
        degraded_recall=degraded,
        elapsed_seconds=time.perf_counter() - begin,
    )


def measure_degraded_recall(
    suite="core",
    num_zones: int = 2,
    dead_zone: int = 1,
    fusion: str = "rescore",
    confidence: float = 0.999,
    fa_budget: float = 0.01,
    tolerance: float = 0.05,
) -> dict:
    """Suite-mean recall of a zone-degraded plane vs the monolithic.

    Fits the spatial plane on every scenario, kills ``dead_zone`` via
    :meth:`~repro.pipeline.sharded.SpatialShardedModel.without_zones`,
    and reads recall at the shared false-alarm budget off exact ROCs —
    the same equal-budget comparison :mod:`repro.scenarios.fusion`
    pins.

    The gate's baseline (``monolithic``) is a monolithic detector fitted
    on the *surviving links*: a dead zone's measurements are physically
    unobservable, so no fusion rule can recover signal from them, and
    comparing against the full-width detector would conflate data loss
    with machinery loss.  What the gate pins is that the quorum-adjusted
    surviving-zone fusion extracts recall within ``tolerance`` of
    everything a single detector could extract from the links the plane
    still sees (with the default two-zone plane the match is exact).
    The full-width recall is reported as ``monolithic_full`` so the raw
    observability cost of the outage stays visible in the same payload.
    """
    specs = get_suite(suite) if isinstance(suite, str) else tuple(suite)
    full_recalls: list[float] = []
    mono_recalls: list[float] = []
    degraded_recalls: list[float] = []
    coverages: list[float] = []
    for spec in specs:
        compiled = compile_scenario(spec)
        traffic = compiled.dataset.link_traffic
        truth = compiled.truth_bins()

        monolithic = SPEDetector(confidence=confidence).fit(traffic)
        spe = np.atleast_1d(np.asarray(monolithic.spe(traffic)))
        full_recalls.append(roc_curve(spe, truth).detection_at(fa_budget))

        zones = min(num_zones, traffic.shape[1])
        plane = SpatialCoordinator(
            num_zones=zones, workers=1, confidence=confidence
        ).fit(traffic)
        degraded = plane.model.without_zones([min(dead_zone, zones - 1)])
        fused = degraded.fused_score(traffic, fusion)
        degraded_recalls.append(
            roc_curve(np.atleast_1d(fused), truth).detection_at(fa_budget)
        )
        coverages.append(degraded.coverage)

        links = sorted(
            link for zone in degraded.zones for link in zone
        )
        survivor = SPEDetector(confidence=confidence).fit(traffic[:, links])
        spe = np.atleast_1d(np.asarray(survivor.spe(traffic[:, links])))
        mono_recalls.append(roc_curve(spe, truth).detection_at(fa_budget))

    monolithic_mean = float(np.mean(mono_recalls))
    degraded_mean = float(np.mean(degraded_recalls))
    gap = degraded_mean - monolithic_mean
    return {
        "suite": suite if isinstance(suite, str) else "custom",
        "num_zones": num_zones,
        "dead_zone": dead_zone,
        "fusion": fusion,
        "fa_budget": fa_budget,
        "coverage": float(np.mean(coverages)),
        "monolithic": monolithic_mean,
        "monolithic_full": float(np.mean(full_recalls)),
        "degraded": degraded_mean,
        "gap": gap,
        "tolerance": tolerance,
        "within_tolerance": gap >= -tolerance,
    }
