"""Tests for the fault-tolerance layer: supervised pool, fault policies,
degraded fits, and the chaos harness.

Everything here injects faults deterministically through
:mod:`repro.pipeline.faults`, so a failure replays exactly; the
bit-identity assertions compare full model state (mean, components,
spectrum, rank, threshold) rather than summaries.
"""

import json
import threading

import numpy as np
import pytest

from repro.exceptions import ModelError, SupervisionError, ValidationError
from repro.pipeline.faults import FaultInjector, FaultPlan, WorkerFault
from repro.pipeline.sharded import SpatialCoordinator, TemporalCoordinator
from repro.pipeline.supervision import (
    FAULT_POLICIES,
    FaultReport,
    SupervisedPool,
    TaskFault,
    raise_if_lost,
    resolve_policy,
)


def _square(value):
    return value * value


def _explode(value):
    raise RuntimeError(f"kernel error on {value}")


def _explode_odd(value):
    if value % 2:
        raise ValueError(f"odd {value}")
    return value


class _Unpicklable(Exception):
    """Its ``__init__`` takes two arguments, so its pickle, which calls
    the class with the one message argument, does not load."""

    def __init__(self, what, value):
        super().__init__(f"{what} {value}")


def _raise_unpicklable(value):
    raise _Unpicklable("no way back for", value)


def _raise_holding_a_lock(value):
    error = RuntimeError(f"no way back for {value}")
    error.lock = threading.Lock()  # a lock does not pickle
    raise error


@pytest.fixture(scope="module")
def tall_block():
    rng = np.random.default_rng(11)
    t, m = 1400, 12
    base = 1e7 * (1.3 + np.sin(2 * np.pi * np.arange(t) / 144.0))[:, None]
    block = np.abs(
        base
        * rng.uniform(0.5, 2.0, size=m)
        * (1.0 + 0.08 * rng.standard_normal((t, m)))
    )
    block[700] *= 2.5
    return block


def same_model(a, b) -> bool:
    """Bit-exact detector equality."""
    pa, pb = a.model.pca, b.model.pca
    return (
        np.array_equal(pa.mean, pb.mean)
        and np.array_equal(pa.components, pb.components)
        and np.array_equal(pa.captured_variance(), pb.captured_variance())
        and a.normal_rank == b.normal_rank
        and a.threshold == b.threshold
    )


class TestSupervisedPool:
    def test_clean_run_is_ordered_and_clean(self):
        with SupervisedPool(workers=2) as pool:
            run = pool.run(_square, list(range(8)), stage="stats")
        assert run.results == [n * n for n in range(8)]
        assert run.report.clean
        assert run.report.tasks == 8
        assert run.report.attempts == 8

    def test_run_outside_context_is_refused(self):
        pool = SupervisedPool(workers=1)
        with pytest.raises(SupervisionError):
            pool.run(_square, [1])

    def test_killed_worker_is_detected_and_task_reassigned(self):
        plan = FaultInjector.kill_worker(task=1, stage="stats", attempts=1)
        with SupervisedPool(
            workers=2, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [3, 4, 5], stage="stats")
        assert run.results == [9, 16, 25]
        report = run.report
        assert report.worker_deaths == 1
        assert report.retries == 1
        assert not report.lost_tasks
        assert [f.kind for f in report.faults] == ["worker_death"]
        assert report.faults[0].task == 1

    def test_deadline_bounds_a_hung_task(self):
        plan = FaultInjector.hang_task(
            task=0, stage="stats", attempts=1, seconds=60.0
        )
        with SupervisedPool(
            workers=1, deadline=1.0, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [7], stage="stats")
        assert run.results == [49]
        assert run.report.timeouts == 1
        assert [f.kind for f in run.report.faults] == ["timeout"]

    def test_kernel_error_is_typed_and_retried(self):
        """A kernel whose worker dies is a typed fault, retried on a
        fresh worker."""
        plan = FaultInjector.kill_worker(task=2, stage="stats", attempts=1)
        with SupervisedPool(
            workers=2, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [1, 2, 3], stage="stats")
        assert run.results == [1, 4, 9]
        (fault,) = run.report.faults
        assert (fault.task, fault.attempt, fault.kind) == (
            2, 1, "worker_death"
        )
        assert run.report.retries == 1
        assert run.report.attempts == 4

    def test_exhausted_retries_lose_the_task_not_the_run(self):
        plan = FaultInjector.kill_worker(task=0, stage="stats", attempts=99)
        with SupervisedPool(
            workers=1, max_retries=1, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [5, 6], stage="stats")
        assert run.results == [None, 36]
        assert run.report.lost_tasks == (0,)
        assert run.report.worker_deaths == 2

    def test_caller_errors_surface_with_the_task_payload(self):
        """A task's own exception is its result: the parent raises it
        with its type and message, retrying nothing, and the pool
        stays usable."""
        with SupervisedPool(workers=1, max_retries=2) as pool:
            with pytest.raises(RuntimeError) as raised:
                pool.run(_explode, [42], stage="stats")
            assert pool.run(_square, [3]).results == [9]
        assert str(raised.value) == "kernel error on 42"
        # The worker's traceback travels with it, as a note.
        assert "in _explode" in "".join(raised.value.__notes__)

    def test_the_first_raising_task_is_raised(self):
        """Every task resolves, then the lowest raising task's exception
        is raised, as an in-order loop would raise it."""
        with SupervisedPool(workers=2) as pool:
            with pytest.raises(ValueError) as raised:
                pool.run(_explode_odd, [0, 1, 2, 3, 4, 5])
        assert str(raised.value) == "odd 1"

    @pytest.mark.parametrize(
        "kernel, name",
        [
            (_raise_unpicklable, "_Unpicklable"),
            (_raise_holding_a_lock, "RuntimeError"),
        ],
    )
    def test_an_unpicklable_exception_arrives_named(self, kernel, name):
        """An exception whose pickle does not load, or that does not
        pickle at all, arrives named by its type and message."""
        with SupervisedPool(workers=1) as pool:
            with pytest.raises(
                SupervisionError, match=f"{name}: no way back for 7"
            ):
                pool.run(kernel, [7], stage="stats")

    def test_hang_plan_without_deadline_is_rejected(self):
        plan = FaultInjector.hang_task(task=0)
        with pytest.raises(ValidationError):
            SupervisedPool(workers=1, fault_plan=plan)

    def test_pool_survives_across_runs(self):
        plan = FaultInjector.kill_worker(task=0, stage="stats", attempts=1)
        with SupervisedPool(
            workers=2, fault_plan=plan, backoff_base=0.01
        ) as pool:
            first = pool.run(_square, [1, 2], stage="stats")
            second = pool.run(_square, [3, 4], stage="moments")
        assert first.results == [1, 4]
        assert second.results == [9, 16]
        assert second.report.clean  # the fault was stats-stage only

    def test_validation(self):
        with pytest.raises(ValidationError):
            SupervisedPool(workers=0)
        with pytest.raises(ValidationError):
            SupervisedPool(workers=1, deadline=0.0)
        with pytest.raises(ValidationError):
            SupervisedPool(workers=1, max_retries=-1)


class TestFaultReport:
    def test_merge_accumulates_every_field(self):
        fault = TaskFault(task=1, attempt=2, kind="timeout", worker=0)
        a = FaultReport(tasks=2, attempts=3, timeouts=1, retries=1,
                        faults=(fault,))
        b = FaultReport(tasks=1, attempts=1, lost_tasks=(0,))
        merged = a.merge(b)
        assert merged.tasks == 3
        assert merged.attempts == 4
        assert merged.timeouts == 1
        assert merged.lost_tasks == (0,)
        assert merged.faults == (fault,)
        assert not merged.clean

    def test_to_json_round_trips_through_json(self):
        report = FaultReport(
            tasks=1,
            attempts=2,
            retries=1,
            faults=(
                TaskFault(task=0, attempt=1, kind="worker_death", worker=3),
            ),
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["faults"][0]["kind"] == "worker_death"
        assert payload["retries"] == 1

    def test_raise_if_lost_honors_policy(self):
        from repro.pipeline.supervision import PoolRun

        lossy = PoolRun(results=[None], report=FaultReport(lost_tasks=(0,)))
        raise_if_lost(lossy, "chunk", "partial")  # tolerated
        with pytest.raises(SupervisionError):
            raise_if_lost(lossy, "chunk", "retry")

    def test_resolve_policy_validates(self):
        assert resolve_policy("partial") == "partial"
        with pytest.raises(ValidationError):
            resolve_policy("best-effort")

    def test_fault_plan_matching_window(self):
        fault = WorkerFault(task=2, stage="stats", first_attempt=1,
                            attempts=2)
        plan = FaultPlan(faults=(fault,))
        assert plan.action_for("stats", 2, 1) is fault
        assert plan.action_for("stats", 2, 2) is fault
        assert plan.action_for("stats", 2, 3) is None
        assert plan.action_for("moments", 2, 1) is None
        assert plan.action_for("stats", 1, 1) is None
        with pytest.raises(ValidationError):
            WorkerFault(task=0, action="melt")
        # A raising task is not a fault, so there is no action for it.
        with pytest.raises(ValidationError):
            WorkerFault(task=0, action="error")


class TestTemporalFaultPolicies:
    def test_retry_after_crash_is_bit_identical(self, tall_block):
        clean = TemporalCoordinator(num_shards=4, workers=1).fit(tall_block)
        plan = FaultInjector.kill_worker(task=1, stage="stats", attempts=1)
        fit = TemporalCoordinator(
            num_shards=4,
            workers=2,
            fault_policy="retry",
            max_retries=2,
            backoff_base=0.01,
            fault_plan=plan,
        ).fit(tall_block)
        assert same_model(fit.detector, clean.detector)
        assert fit.report.coverage == 1.0
        assert fit.report.fault.worker_deaths == 1
        # A healed run is bit-identical but its scars stay visible.
        payload = fit.report.to_json()
        assert payload["fault"]["worker_deaths"] == 1
        assert payload["fault"]["lost_tasks"] == []

    def test_partial_records_coverage_and_lost_chunk(self, tall_block):
        plan = FaultInjector.kill_worker(task=1, stage="stats", attempts=99)
        fit = TemporalCoordinator(
            num_shards=4,
            workers=2,
            fault_policy="partial",
            max_retries=1,
            backoff_base=0.01,
            fault_plan=plan,
        ).fit(tall_block)
        assert fit.report.coverage < 1.0
        assert 1 in fit.report.fault.lost_tasks
        payload = fit.report.to_json()
        assert payload["model"]["coverage"] == fit.report.coverage
        assert payload["fault"]["lost_tasks"] == [1]
        # The degraded model still detects on the surviving rows.
        assert fit.detector.threshold > 0

    def test_fail_fast_aborts_typed(self, tall_block):
        plan = FaultInjector.kill_worker(task=0, stage="stats", attempts=99)
        with pytest.raises(SupervisionError):
            TemporalCoordinator(
                num_shards=4,
                workers=2,
                fault_policy="fail-fast",
                fault_plan=plan,
            ).fit(tall_block)

    def test_clean_report_json_is_byte_stable(self, tall_block):
        fit = TemporalCoordinator(
            num_shards=4, workers=2, fault_policy="retry"
        ).fit(tall_block)
        payload = fit.report.to_json()
        assert payload["model"]["coverage"] == 1.0
        assert "fault" not in payload

    def test_policy_validation(self, tall_block):
        with pytest.raises(ValidationError):
            TemporalCoordinator(num_shards=2, fault_policy="optimistic")


class TestSpatialZoneLoss:
    def test_partial_fit_survives_a_dead_zone(self, tall_block):
        plan = FaultInjector.kill_worker(task=1, stage="zones", attempts=99)
        fit = SpatialCoordinator(
            num_zones=3,
            workers=2,
            normal_rank=2,
            fault_policy="partial",
            max_retries=1,
            backoff_base=0.01,
            fault_plan=plan,
        ).fit(tall_block)
        model = fit.model
        assert model.coverage < 1.0
        assert model.dead_zones == (1,)
        assert len(model.detectors) == 2
        # Full-width scoring still works on the degraded plane.
        fused = model.fused_score(tall_block, "rescore")
        assert np.all(np.isfinite(fused))
        assert fit.report.coverage == model.coverage

    def test_without_zones_rescales_the_quorum(self, tall_block):
        fit = SpatialCoordinator(
            num_zones=4, workers=1, normal_rank=2, votes=2
        ).fit(tall_block)
        degraded = fit.model.without_zones([3])
        assert degraded.dead_zones == (3,)
        assert degraded.coverage < 1.0
        assert 1 <= degraded.votes <= 3
        report = degraded.alarm_report(tall_block)
        assert report["coverage"] == degraded.coverage
        assert report["dead_zones"] == [3]
        assert len(report["alarms"]) == tall_block.shape[0]

    def test_without_zones_validates(self, tall_block):
        fit = SpatialCoordinator(
            num_zones=2, workers=1, normal_rank=2
        ).fit(tall_block)
        with pytest.raises(ModelError):
            fit.model.without_zones([7])
        with pytest.raises(ModelError):
            fit.model.without_zones([0, 1])  # nobody left

    def test_retry_heals_a_transient_zone_crash(self, tall_block):
        clean = SpatialCoordinator(
            num_zones=3, workers=1, normal_rank=2
        ).fit(tall_block)
        plan = FaultInjector.kill_worker(task=0, stage="zones", attempts=1)
        fit = SpatialCoordinator(
            num_zones=3,
            workers=2,
            normal_rank=2,
            fault_policy="retry",
            max_retries=2,
            backoff_base=0.01,
            fault_plan=plan,
        ).fit(tall_block)
        assert fit.report.coverage == 1.0
        assert all(
            same_model(a, b)
            for a, b in zip(fit.model.detectors, clean.model.detectors)
        )


@pytest.fixture(scope="module")
def nan_block():
    """5,000 x 8 rows with one NaN, at row 3,000 of link 0."""
    rng = np.random.default_rng(31)
    block = rng.uniform(1e6, 2e6, size=(5000, 8))
    block[3000, 0] = np.nan
    return block


class TestTypedErrorsOnEveryLayout:
    """A task's own exception is raised with its type and message on
    every worker layout and under every fault policy: no policy retries
    it, drops its shard or returns a fit without it."""

    @pytest.mark.parametrize("policy", FAULT_POLICIES)
    @pytest.mark.parametrize("plane", ["temporal", "spatial"])
    def test_a_non_finite_row_raises_the_same_model_error(
        self, nan_block, plane, policy
    ):
        errors = []
        for workers in (1, 2):
            settings = dict(
                workers=workers, fault_policy=policy, backoff_base=0.01
            )
            if plane == "temporal":
                coordinator = TemporalCoordinator(num_shards=4, **settings)
            else:
                coordinator = SpatialCoordinator(num_zones=2, **settings)
            with pytest.raises(ModelError) as raised:
                coordinator.fit(nan_block)
            errors.append(raised.value)
        assert [type(error) for error in errors] == [ModelError, ModelError]
        assert str(errors[0]) == str(errors[1])


class TestChaosHarness:
    def test_retry_matrix_smoke(self):
        from repro.pipeline.chaos import run_chaos_suite

        report = run_chaos_suite(
            policy="retry",
            max_scenarios=1,
            deadline=2.0,
            faults=("kill_worker", "corrupt_checkpoint"),
            probe_degraded_recall=False,
        )
        assert report.all_ok, report.table()
        assert {o.plane for o in report} == {"temporal", "spatial", "service"}
        payload = report.to_json()
        assert payload["failures"] == 0
        assert report.table()  # renders without raising

    def test_partial_matrix_smoke(self):
        from repro.pipeline.chaos import run_chaos_suite

        report = run_chaos_suite(
            policy="partial",
            max_scenarios=1,
            deadline=2.0,
            faults=("kill_worker",),
            probe_degraded_recall=False,
        )
        assert report.all_ok, report.table()

    @pytest.mark.parametrize("policy", ["fail-fast", "retry", "partial"])
    @pytest.mark.parametrize("broken", ["restores_damage", "restore_differs"])
    def test_service_cell_fails_a_broken_cycle_under_every_policy(
        self, monkeypatch, policy, broken
    ):
        """The service cell's contract does not depend on the policy: a
        damaged checkpoint that restores, or a warm restore that is not
        bit-identical, fails the cell under each one."""
        import repro.pipeline.chaos as chaos

        if broken == "restores_damage":
            monkeypatch.setattr(
                FaultInjector, "corrupt_checkpoint", staticmethod(lambda path: None)
            )
        else:
            monkeypatch.setattr(chaos, "_detectors_match", lambda a, b: False)
        report = chaos.run_chaos_suite(
            policy=policy,
            max_scenarios=1,
            faults=("corrupt_checkpoint",),
            planes=("service",),
            probe_degraded_recall=False,
        )
        (cell,) = report
        assert cell.terminated
        assert not cell.ok, report.table()

    def test_degraded_recall_gate(self):
        from repro.pipeline.chaos import measure_degraded_recall
        from repro.scenarios.suite import get_suite

        probe = measure_degraded_recall(suite=get_suite("core")[:2])
        assert probe["coverage"] < 1.0
        assert probe["within_tolerance"], probe

    def test_unknown_inputs_are_rejected(self):
        from repro.pipeline.chaos import run_chaos_suite

        with pytest.raises(ValidationError):
            run_chaos_suite(policy="yolo")
        with pytest.raises(ValidationError):
            run_chaos_suite(faults=("melt_cpu",))
        with pytest.raises(ValidationError):
            run_chaos_suite(planes=("orbital",))
        # The chunk-stream plane, its fault kinds and the raising-task
        # kind are gone.
        for gone in ("drop_chunk", "fail_task"):
            with pytest.raises(ValidationError):
                run_chaos_suite(faults=(gone,))
        with pytest.raises(ValidationError):
            run_chaos_suite(planes=("stream",))
