"""Multi-tenant service front: routes, labeled metrics, checkpoints.

The multi-tenant seam over the always-on engine:

* ``POST /ingest/<tenant>`` routes to the named engine (percent-encoded
  ids included); unknown tenants are a typed 404, wrong methods a 405;
* the fleet registry labels per-tenant traffic without touching the
  golden-pinned single-tenant exposition;
* tenant-namespaced checkpoints let two tenants and an unrelated
  service write into one directory *concurrently* and restore each
  bit-identically — the satellite regression for the shared-directory
  clobbering bug.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.pipeline.fleet import (
    FleetManager,
    synthetic_tenant_traffic,
    tenant_checkpoint_path,
)
from repro.service import DetectionService, ServiceConfig
from repro.service.tenants import MultiTenantService

LINKS = 10
WARMUP = 160


def tenant_warmups(*tenant_ids):
    return {
        tenant_id: synthetic_tenant_traffic(
            tenant_id, WARMUP, links=LINKS
        )
        for tenant_id in tenant_ids
    }


def fresh_rows(tenant_id, rows=8, start_row=WARMUP):
    return synthetic_tenant_traffic(
        tenant_id, rows, links=LINKS, start_row=start_row
    )


@pytest.fixture
def front(tmp_path):
    front = MultiTenantService.from_warmups(
        tenant_warmups("acme", "umbrella/eu"),
        checkpoint_dir=tmp_path,
    )
    yield front
    front.close()


class TestDirectApi:
    def test_routes_rows_to_the_named_engine(self, front):
        outcome = front.ingest_row("acme", fresh_rows("acme", 1)[0])
        assert outcome.bin == 0 and outcome.model_version == 1
        assert front.service("acme").rows_ingested == 1
        assert front.service("umbrella/eu").rows_ingested == 0

    def test_unknown_tenant_is_typed(self, front):
        with pytest.raises(ServiceError, match="unknown tenant"):
            front.ingest_row("ghost", np.ones(LINKS))
        with pytest.raises(ServiceError, match="unknown tenant"):
            front.service("ghost")

    def test_labeled_metrics_account_per_tenant(self, front):
        for row in fresh_rows("acme", 3):
            front.ingest_row("acme", row)
        front.ingest_row("umbrella/eu", fresh_rows("umbrella/eu", 1)[0])
        text = front.metrics_text()
        assert 'repro_tenant_rows_ingested_total{tenant="acme"} 3' in text
        assert (
            'repro_tenant_rows_ingested_total{tenant="umbrella/eu"} 1'
            in text
        )
        assert "repro_tenants 2" in text.splitlines()

    def test_ingest_errors_are_labeled_and_reraised(self, front):
        from repro.exceptions import IngestError

        with pytest.raises(IngestError):
            front.ingest_row("acme", np.ones(LINKS + 3))
        text = front.metrics_text()
        assert 'repro_tenant_ingest_errors_total{tenant="acme"} 1' in text

    def test_health_aggregates_tenants(self, front):
        health = front.health()
        assert health["status"] == "ok"
        assert set(health["tenants"]) == {"acme", "umbrella/eu"}

    def test_requires_at_least_one_tenant(self):
        with pytest.raises(ServiceError, match=">= 1 tenant"):
            MultiTenantService({})


class TestHTTPRoutes:
    def test_tenant_ingest_routes_and_isolation(self, run_server, front):
        server = run_server(
            front.service(front.tenants[0]), tenants=front
        )
        status, body = server.post_json(
            "/ingest/acme", {"rows": fresh_rows("acme", 4).tolist()}
        )
        assert status == 200 and body["accepted"] == 4
        # Percent-encoded ids reach the right engine.
        status, body = server.post_json(
            "/ingest/umbrella%2Feu",
            {"rows": fresh_rows("umbrella/eu", 2).tolist()},
        )
        assert status == 200 and body["accepted"] == 2
        assert front.service("acme").rows_ingested == 4
        assert front.service("umbrella/eu").rows_ingested == 2

    def test_non_numeric_bin_is_a_counted_400(self, run_server, front):
        """A ``bins`` entry that is not a number rejects its row; the
        rows before it stay ingested and the tenant counts one error."""
        server = run_server(
            front.service(front.tenants[0]), tenants=front
        )
        status, body = server.post_json(
            "/ingest/acme",
            {"rows": fresh_rows("acme", 3).tolist(), "bins": [0, 1, "2"]},
        )
        assert status == 400
        assert body["reason"] == "bad_payload"
        assert body["error"] == "bin '2' is not a number"
        assert body["accepted"] == 2
        assert front.service("acme").rows_ingested == 2
        text = front.metrics_text()
        assert 'repro_tenant_ingest_errors_total{tenant="acme"} 1' in text
        assert 'repro_tenant_rows_ingested_total{tenant="acme"} 2' in text

    def test_unknown_tenant_404_with_reason(self, run_server, front):
        server = run_server(
            front.service(front.tenants[0]), tenants=front
        )
        status, body = server.post_json(
            "/ingest/ghost", {"rows": fresh_rows("acme", 1).tolist()}
        )
        assert status == 404
        assert body["reason"] == "unknown_tenant"

    def test_wrong_method_is_405(self, run_server, front):
        server = run_server(
            front.service(front.tenants[0]), tenants=front
        )
        status, _ = server.get("/ingest/acme")
        assert status == 405

    def test_metrics_appends_fleet_exposition(self, run_server, front):
        server = run_server(
            front.service(front.tenants[0]), tenants=front
        )
        server.post_json(
            "/ingest/acme", {"rows": fresh_rows("acme", 2).tolist()}
        )
        status, text = server.get("/metrics")
        assert status == 200
        lines = text.splitlines()
        # The primary engine's unlabeled exposition is still there...
        assert any(
            line.startswith("repro_rows_ingested_total") for line in lines
        )
        # ...with the tenant-labeled fleet counters appended after it.
        assert 'repro_tenant_rows_ingested_total{tenant="acme"} 2' in lines


class TestCheckpointRestore:
    def test_restore_every_tenant_bitwise(self, tmp_path):
        front = MultiTenantService.from_warmups(
            tenant_warmups("acme", "umbrella/eu"), checkpoint_dir=tmp_path
        )
        front.checkpoint()
        probes = {
            tenant_id: fresh_rows(tenant_id, 6)
            for tenant_id in front.tenants
        }
        expected = {
            tenant_id: [
                front.ingest_row(tenant_id, row).spe
                for row in probes[tenant_id]
            ]
            for tenant_id in front.tenants
        }
        front.close()

        restored = MultiTenantService.restore(tmp_path)
        assert set(restored.tenants) == {"acme", "umbrella/eu"}
        for tenant_id, rows in probes.items():
            spe = [
                restored.ingest_row(tenant_id, row).spe for row in rows
            ]
            assert spe == expected[tenant_id]
        restored.close()

    def test_concurrent_writers_share_one_directory(
        self, tmp_path, service_split
    ):
        """Satellite regression: two fleet tenants and an unrelated
        detection service checkpoint into the same directory at the
        same time; every artifact restores bit-identically."""
        dataset, warmup = service_split

        fleet = FleetManager(workers=1, checkpoint_dir=tmp_path)
        for tenant_id in ("acme", "umbrella/eu"):
            fleet.add_tenant(
                tenant_id,
                synthetic_tenant_traffic(tenant_id, WARMUP, links=LINKS),
            )
        fleet.fit(strict=True)

        service = DetectionService.from_warmup(
            dataset.link_traffic[:warmup],
            config=ServiceConfig(
                checkpoint_path=str(
                    tenant_checkpoint_path(tmp_path, "standalone-svc")
                )
            ),
        )

        errors = []

        def run(fn):
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(fleet.checkpoint,)),
            threading.Thread(target=run, args=(service.checkpoint,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

        blocks = {
            tenant_id: fresh_rows(tenant_id, 12)
            for tenant_id in fleet.tenants
        }
        expected = fleet.score(blocks)
        restored_fleet = FleetManager.restore(tmp_path)
        # The service's checkpoint shares the lifecycle format, so the
        # fleet restores it as one more tenant — the real tenants come
        # back regardless, undisturbed.
        assert set(fleet.tenants) <= set(restored_fleet.tenants)
        alarms = restored_fleet.score(blocks)
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                alarms[tenant_id].spe, expected[tenant_id].spe
            )

        stream = dataset.link_traffic[warmup : warmup + 5]
        expected_spe = [service.ingest_row(row).spe for row in stream]
        restored_svc = DetectionService.from_checkpoint(
            tenant_checkpoint_path(tmp_path, "standalone-svc")
        )
        spe = [restored_svc.ingest_row(row).spe for row in stream]
        assert spe == expected_spe
        service.close()
        restored_svc.close()
