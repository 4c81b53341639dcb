"""The tenant stack under the fleet harness: pooled bootstraps, crash
isolation, restore.

The guarantees ``repro fleet run`` gates, each pinned bit for bit:

* tenants bootstrapped on a shared worker pool serve exactly what an
  in-process bootstrap serves;
* an injected worker crash that permanently loses one tenant's fit
  leaves every other tenant's model and alarms untouched;
* a service of pooled-bootstrap tenants, checkpointed and restored
  through :meth:`MultiTenantService.restore`, serves bitwise and keeps
  refitting.
"""

import numpy as np
import pytest

from repro.exceptions import FleetError, IngestError, ModelError, ServiceError
from repro.pipeline.faults import FaultPlan, WorkerFault
from repro.pipeline.fleet import run_fleet_check, synthetic_tenant_traffic
from repro.service import DetectionService
from repro.service.tenants import MultiTenantService, bootstrap_lifecycles

LINKS = 12
WARMUP = 160
SCORE = 48


def warmups(num_tenants=3):
    return {
        tenant_id: synthetic_tenant_traffic(tenant_id, WARMUP, links=LINKS)
        for tenant_id in (f"acme-{index:02d}" for index in range(num_tenants))
    }


def score_block(tenant_id, anomalies=2):
    return synthetic_tenant_traffic(
        tenant_id, SCORE, links=LINKS, anomalies=anomalies, start_row=WARMUP
    )


def front_of(lifecycles, **kwargs):
    return MultiTenantService(
        {t: DetectionService(lifecycle) for t, lifecycle in lifecycles.items()},
        **kwargs,
    )


def serve(front):
    """``(spe, flags, thresholds, versions)`` ``front`` serves for each
    tenant's score block."""
    served = {}
    for tenant_id in front.tenants:
        outcomes = front.ingest_block(tenant_id, score_block(tenant_id)).outcomes
        served[tenant_id] = [
            np.array([getattr(o, field) for o in outcomes])
            for field in ("spe", "flag", "threshold", "model_version")
        ]
    return served


def assert_same(served, expected):
    for tenant_id, arrays in served.items():
        for got, want in zip(arrays, expected[tenant_id]):
            assert np.array_equal(got, want), tenant_id


def crash_plan(task, attempts):
    return FaultPlan(
        faults=(
            WorkerFault(
                task=task, action="crash", stage="tenant-fit", attempts=attempts
            ),
        )
    )


class TestFleetScoring:
    def test_pooled_fit_matches_in_process_fit(self):
        """Worker-process fits install bit-identical models."""
        serial, serial_report = bootstrap_lifecycles(warmups())
        pooled, report = bootstrap_lifecycles(warmups(), workers=2)
        assert report.clean and serial_report.clean
        assert report.attempts == 3 and serial_report.attempts == 3
        assert list(pooled) == list(serial)
        for tenant_id, lifecycle in pooled.items():
            assert lifecycle.current.summary() == serial[tenant_id].current.summary()
        assert_same(serve(front_of(pooled)), serve(front_of(serial)))


class TestFaultIsolation:
    def test_survivors_bit_identical_under_crash(self):
        expected = serve(front_of(bootstrap_lifecycles(warmups(4))[0]))
        survivors, report = bootstrap_lifecycles(
            warmups(4),
            workers=2,
            max_retries=1,
            fault_plan=crash_plan(task=1, attempts=2),
        )
        assert report.lost_tasks == (1,)
        assert any(
            fault.task == 1 and fault.kind == "worker_death"
            for fault in report.faults
        )
        assert list(survivors) == ["acme-00", "acme-02", "acme-03"]
        assert_same(serve(front_of(survivors)), expected)

    def test_crash_with_retry_budget_recovers(self):
        lifecycles, report = bootstrap_lifecycles(
            warmups(),
            workers=2,
            max_retries=2,
            fault_plan=crash_plan(task=0, attempts=1),
        )
        assert not report.lost_tasks
        assert report.worker_deaths >= 1
        assert list(lifecycles) == list(warmups())


class TestFleetRestore:
    def test_restore_rescores_bitwise(self, tmp_path):
        lifecycles, _ = bootstrap_lifecycles(warmups(), workers=2)
        front = front_of(lifecycles, checkpoint_dir=tmp_path)
        summaries = front.checkpoint()
        assert set(summaries) == set(front.tenants)
        expected = serve(front)

        restored = MultiTenantService.restore(tmp_path)
        assert sorted(restored.tenants) == sorted(front.tenants)
        assert_same(serve(restored), expected)

    def test_restored_fleet_refits_and_scores(self, tmp_path):
        lifecycles, _ = bootstrap_lifecycles(warmups(2), workers=2)
        front_of(lifecycles).checkpoint(tmp_path)
        restored = MultiTenantService.restore(tmp_path)
        for tenant_id in restored.tenants:
            result = restored.ingest_block(tenant_id, score_block(tenant_id))
            assert result.accepted == SCORE
            assert restored.service(tenant_id).refit().version == 2
            outcome = restored.ingest_row(tenant_id, score_block(tenant_id)[0])
            assert outcome.model_version == 2

    def test_restore_empty_directory_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no tenant checkpoints"):
            MultiTenantService.restore(tmp_path)


class TestGuardrails:
    def test_unknown_tenant_rejected(self):
        front = MultiTenantService.from_warmups(warmups(1))
        with pytest.raises(ServiceError, match="unknown tenant"):
            front.ingest_block("ghost", np.zeros((4, LINKS)))

    def test_fit_without_tenants_raises(self):
        lifecycles, report = bootstrap_lifecycles({})
        assert lifecycles == {} and report.tasks == 0
        with pytest.raises(ServiceError, match=">= 1 tenant"):
            MultiTenantService.from_warmups({})

    def test_too_few_warmup_rows_raises(self):
        with pytest.raises(ServiceError, match="at least 2 rows"):
            bootstrap_lifecycles({"thin": np.ones((1, 4))})

    def test_non_finite_rows_leave_a_fitted_history_unchanged(self):
        front = MultiTenantService.from_warmups(warmups(1))
        poisoned = np.ones((3, LINKS))
        poisoned[0, 5] = np.nan
        result = front.ingest_block("acme-00", poisoned)
        assert isinstance(result.rejected, IngestError)
        assert result.accepted == 0
        assert front.service("acme-00").lifecycle.rows == WARMUP

    def test_non_finite_rows_never_reach_a_pending_history(self):
        poisoned = warmups(2)
        poisoned["acme-01"][2, 0] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            bootstrap_lifecycles(poisoned, workers=2)


class TestRunFleetCheck:
    def test_all_gates_pass(self, tmp_path):
        report = run_fleet_check(
            num_tenants=3,
            warmup_rows=120,
            score_rows=32,
            links=10,
            workers=2,
            checkpoint_dir=tmp_path,
        )
        assert report["ok"]
        assert report["parity_ok"]
        assert report["isolation_ok"]
        assert report["restore_ok"]
        assert report["crash_outcome"]["status"] == "lost"
        assert report["crash_outcome"]["worker_deaths"] >= 1
        assert "score_plan" not in report

    def test_rejects_single_tenant(self):
        with pytest.raises(FleetError, match=">= 2 tenants"):
            run_fleet_check(num_tenants=1)
