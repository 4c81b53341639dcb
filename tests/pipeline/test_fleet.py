"""The tenant stack over synthetic tenant traffic: restore and guardrails.

A service of tenants bootstrapped by
:meth:`MultiTenantService.from_warmups`, checkpointed and restored
through :meth:`MultiTenantService.restore`, serves bitwise and keeps
refitting; bad tenants, warmups and rows are typed rejections.
"""

import numpy as np
import pytest

from repro.core.suffstats import RowStore
from repro.exceptions import IngestError, ModelError, ServiceError
from repro.pipeline.fleet import synthetic_tenant_traffic
from repro.service.tenants import MultiTenantService

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


class TestFleetRestore:
    def test_restore_rescores_bitwise(self, tmp_path):
        front = MultiTenantService.from_warmups(
            warmups(), checkpoint_dir=tmp_path
        )
        summaries = front.checkpoint()
        assert set(summaries) == set(front.tenants)
        expected = serve(front)

        restored = MultiTenantService.restore(tmp_path)
        assert sorted(restored.tenants) == sorted(front.tenants)
        assert_same(serve(restored), expected)

    def test_restored_fleet_refits_and_scores(self, tmp_path):
        MultiTenantService.from_warmups(warmups(2)).checkpoint(tmp_path)
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
        with pytest.raises(ServiceError, match=">= 1 tenant"):
            MultiTenantService.from_warmups({})

    def test_too_few_warmup_rows_raises(self):
        with pytest.raises(ServiceError, match="at least 2 rows"):
            MultiTenantService.from_warmups({"thin": np.ones((1, 4))})

    def test_non_finite_rows_leave_a_fitted_history_unchanged(self):
        front = MultiTenantService.from_warmups(warmups(1))
        poisoned = np.ones((3, LINKS))
        poisoned[0, 5] = np.nan
        result = front.ingest_block("acme-00", poisoned)
        assert isinstance(result.rejected, IngestError)
        assert result.accepted == 0
        assert front.service("acme-00").lifecycle.rows == WARMUP

    def test_each_tenant_history_is_built_once(self, monkeypatch):
        """Checking the warmups before any fit builds no history: a
        three-tenant bootstrap builds one ``RowStore`` per tenant."""
        built = []
        construct = RowStore.__init__

        def counting(store, *args, **kwargs):
            built.append(store)
            construct(store, *args, **kwargs)

        monkeypatch.setattr(RowStore, "__init__", counting)
        front = MultiTenantService.from_warmups(warmups(3))
        assert len(built) == 3
        assert [front.service(t).lifecycle.rows for t in front.tenants] == [
            WARMUP
        ] * 3

    def test_non_finite_rows_never_reach_a_pending_history(self):
        poisoned = warmups(2)
        poisoned["acme-01"][2, 0] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            MultiTenantService.from_warmups(poisoned)
