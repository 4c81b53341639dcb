"""Tests for the fault-tolerance layer: supervised pool, fault policies,
degraded fits, stream resume, and the chaos harness.

Everything here injects faults deterministically through
:mod:`repro.pipeline.faults`, so a failure replays exactly; the
bit-identity assertions compare full model state (mean, components,
spectrum, rank, threshold) rather than summaries.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.suffstats import DEFAULT_TILE_ROWS, SufficientStats
from repro.exceptions import (
    CheckpointError,
    ModelError,
    SupervisionError,
    ValidationError,
)
from repro.pipeline.faults import FaultInjector, FaultPlan, WorkerFault
from repro.pipeline.sharded import (
    STREAM_CHECKPOINT_SCHEMA_VERSION,
    SpatialCoordinator,
    TemporalCoordinator,
)
from repro.pipeline.supervision import (
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
        plan = FaultInjector.fail_task(task=2, stage="stats", attempts=1)
        with SupervisedPool(
            workers=2, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [1, 2, 3], stage="stats")
        assert run.results == [1, 4, 9]
        assert [f.kind for f in run.report.faults] == ["error"]

    def test_exhausted_retries_lose_the_task_not_the_run(self):
        plan = FaultInjector.fail_task(task=0, stage="stats", attempts=99)
        with SupervisedPool(
            workers=1, max_retries=1, fault_plan=plan, backoff_base=0.01
        ) as pool:
            run = pool.run(_square, [5, 6], stage="stats")
        assert run.results == [None, 36]
        assert run.report.lost_tasks == (0,)

    def test_caller_errors_surface_with_the_task_payload(self):
        with SupervisedPool(workers=1, max_retries=0) as pool:
            run = pool.run(_explode, [42], stage="stats")
        assert run.results == [None]
        assert run.report.lost_tasks == (0,)
        assert "kernel error on 42" in run.report.faults[0].detail

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
            faults=(TaskFault(task=0, attempt=1, kind="error", worker=3),),
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["faults"][0]["kind"] == "error"
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


class TestStreamFaults:
    CHUNK = 200

    def fit_clean(self, block):
        return TemporalCoordinator(num_shards=2, workers=1).fit(block)

    def coordinator(self, policy="retry"):
        return TemporalCoordinator(
            num_shards=2,
            workers=1,
            fault_policy=policy,
            max_retries=1,
            backoff_base=0.01,
        )

    def test_duplicate_chunk_folds_exactly_once(self, tall_block):
        source = FaultInjector.chunk_source(
            tall_block, self.CHUNK, fault="duplicate"
        )
        fit = self.coordinator().fit_stream(
            source, expected_rows=tall_block.shape[0]
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)
        assert fit.report.coverage == 1.0

    def test_delayed_chunk_is_reordered_exactly(self, tall_block):
        source = FaultInjector.chunk_source(
            tall_block, self.CHUNK, fault="delay"
        )
        fit = self.coordinator().fit_stream(
            source, expected_rows=tall_block.shape[0]
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)

    def test_dropped_chunk_is_recovered_by_retry(self, tall_block):
        source = FaultInjector.chunk_source(
            tall_block, self.CHUNK, fault="drop"
        )
        fit = self.coordinator().fit_stream(
            source, expected_rows=tall_block.shape[0]
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)
        assert fit.report.fault is not None
        assert fit.report.fault.retries >= 1

    def test_permanent_drop_degrades_under_partial(self, tall_block):
        source = FaultInjector.chunk_source(
            tall_block, self.CHUNK, fault="drop", drop_always=True
        )
        fit = self.coordinator("partial").fit_stream(
            source, expected_rows=tall_block.shape[0]
        )
        assert fit.report.coverage < 1.0
        assert fit.report.fault is not None

    def test_permanent_drop_aborts_under_fail_fast(self, tall_block):
        source = FaultInjector.chunk_source(
            tall_block, self.CHUNK, fault="drop", drop_always=True
        )
        with pytest.raises(SupervisionError):
            TemporalCoordinator(
                num_shards=2, workers=1, fault_policy="fail-fast"
            ).fit_stream(source, expected_rows=tall_block.shape[0])

    def test_legacy_errors_are_preserved(self, tall_block):
        with pytest.raises(ModelError, match="yielded no chunks"):
            TemporalCoordinator(num_shards=2, workers=1).fit_stream(
                lambda: iter(())
            )

    def test_resume_from_checkpoint_is_bit_identical(
        self, tall_block, tmp_path
    ):
        path = tmp_path / "stream.ckpt"
        half = tall_block.shape[0] // 2

        def first_half():
            for start in range(0, half, self.CHUNK):
                yield (start, tall_block[start : start + self.CHUNK])

        # Interrupted run: only the first half arrives, partial policy
        # persists what was covered.
        self.coordinator("partial").fit_stream(
            first_half,
            checkpoint_path=path,
            expected_rows=tall_block.shape[0],
        )
        assert path.exists()

        def full():
            for start in range(0, tall_block.shape[0], self.CHUNK):
                yield (start, tall_block[start : start + self.CHUNK])

        fit = self.coordinator().fit_stream(
            full, checkpoint_path=path, expected_rows=tall_block.shape[0]
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)

    def test_corrupt_checkpoint_recovers_fresh_with_fault(
        self, tall_block, tmp_path
    ):
        path = tmp_path / "stream.ckpt"
        source = FaultInjector.chunk_source(tall_block, self.CHUNK)
        self.coordinator().fit_stream(
            source, checkpoint_path=path,
            expected_rows=tall_block.shape[0],
        )
        FaultInjector.corrupt_checkpoint(path, mode="truncate")
        fit = self.coordinator().fit_stream(
            source, checkpoint_path=path,
            expected_rows=tall_block.shape[0],
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)
        kinds = [f.kind for f in fit.report.fault.faults]
        assert "corrupt_checkpoint" in kinds

    def test_checkpoint_on_other_tiles_is_a_corrupt_checkpoint(
        self, tall_block, tmp_path
    ):
        """A stream checkpoint whose statistics fold other tiles than
        every fit does cannot be resumed: the fit records the fault,
        starts fresh, and ends on the clean bits."""
        path = tmp_path / "stream.ckpt"
        with path.open("wb") as handle:
            pickle.dump(
                {
                    "schema_version": STREAM_CHECKPOINT_SCHEMA_VERSION,
                    "tile_rows": 256,
                    "dtype": "float64",
                    "intervals": ((0, 400),),
                    "stats": SufficientStats.from_block(
                        tall_block[:400], tile_rows=256
                    ),
                    "timings": (),
                    "merge_seconds": 0.0,
                },
                handle,
            )
        source = FaultInjector.chunk_source(tall_block, self.CHUNK)
        fit = self.coordinator().fit_stream(
            source, checkpoint_path=path,
            expected_rows=tall_block.shape[0],
        )
        assert same_model(fit.detector, self.fit_clean(tall_block).detector)
        faults = fit.report.fault.faults
        assert [f.kind for f in faults] == ["corrupt_checkpoint"]
        assert "256-row tiles" in faults[0].detail
        with path.open("rb") as handle:
            rewritten = pickle.load(handle)
        assert rewritten["tile_rows"] == DEFAULT_TILE_ROWS
        assert rewritten["stats"].tile_rows == DEFAULT_TILE_ROWS

    def test_negative_start_row_is_rejected(self, tall_block):
        def source():
            yield (-1, tall_block[:10])

        with pytest.raises(ModelError):
            TemporalCoordinator(num_shards=2, workers=1).fit_stream(source)


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


class TestStreamCheckpointFormat:
    def test_checkpoint_is_a_versioned_pickle(self, tall_block, tmp_path):
        from repro.pipeline.sharded import STREAM_CHECKPOINT_SCHEMA_VERSION

        path = tmp_path / "stream.ckpt"
        source = FaultInjector.chunk_source(tall_block, 200)
        TemporalCoordinator(num_shards=2, workers=1).fit_stream(
            source, checkpoint_path=path
        )
        payload = pickle.loads(path.read_bytes())
        assert payload["schema_version"] == STREAM_CHECKPOINT_SCHEMA_VERSION
        assert [tuple(span) for span in payload["intervals"]] == [
            (0, tall_block.shape[0])
        ]

    def test_bad_schema_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "stream.ckpt"
        path.write_bytes(pickle.dumps({"schema_version": 999}))
        coordinator = TemporalCoordinator(num_shards=2, workers=1)
        with pytest.raises(CheckpointError):
            coordinator._load_stream_checkpoint(path)


class TestChaosHarness:
    def test_retry_matrix_smoke(self):
        from repro.pipeline.chaos import run_chaos_suite

        report = run_chaos_suite(
            policy="retry",
            max_scenarios=1,
            deadline=2.0,
            faults=("kill_worker", "drop_chunk", "corrupt_checkpoint"),
            probe_degraded_recall=False,
        )
        assert report.all_ok, report.table()
        assert {o.plane for o in report} == {
            "temporal", "spatial", "stream", "service"
        }
        payload = report.to_json()
        assert payload["failures"] == 0
        assert report.table()  # renders without raising

    def test_partial_matrix_smoke(self):
        from repro.pipeline.chaos import run_chaos_suite

        report = run_chaos_suite(
            policy="partial",
            max_scenarios=1,
            deadline=2.0,
            faults=("fail_task", "drop_chunk"),
            probe_degraded_recall=False,
        )
        assert report.all_ok, report.table()

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
