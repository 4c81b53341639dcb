"""Multi-tenant service front: routes, labeled metrics, checkpoints.

The multi-tenant seam over the always-on engine:

* ``POST /ingest/<tenant>`` routes to the named engine (percent-encoded
  ids included); unknown tenants are a typed 404, wrong methods a 405;
* the tenant registry labels per-tenant traffic without touching the
  golden-pinned single-tenant exposition;
* tenant-namespaced checkpoints let two tenants and an unrelated
  service write into one directory *concurrently* and restore each
  bit-identically — the regression for the shared-directory clobbering
  bug — and a directory in the layout the earlier fleet scheduler wrote
  restores bit-identically too.
"""

import threading
from urllib.parse import unquote

import numpy as np
import pytest

from repro.exceptions import FleetError, ServiceError
from repro.pipeline.fleet import synthetic_tenant_traffic
from repro.service import DetectionService, ServiceConfig
from repro.service.tenants import (
    MultiTenantService,
    tenant_checkpoint_path,
    tenant_checkpoints,
)

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


def sample(text, name):
    """The sample text of one metric (as rendered) in an exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return line.rsplit(" ", 1)[1]
    raise AssertionError(f"{name} is not exposed")


def drift_gauges(service):
    """The drift tracker's two gauges, as rendered (shortest round-trip
    ``repr``, so equal strings are equal bits)."""
    text = service.metrics_text()
    return (
        sample(text, "repro_tracker_threshold"),
        sample(text, "repro_tracker_drift_radians"),
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

    def test_from_warmups_names_a_lost_tenant(self):
        """A tenant whose bootstrap fit raises is lost, and the service
        refuses to start without it, naming it and the cause."""
        warmups = {
            "wide": synthetic_tenant_traffic("wide", WARMUP, links=LINKS),
            "narrow": synthetic_tenant_traffic("narrow", WARMUP, links=3),
        }
        config = ServiceConfig(normal_rank=5)
        with pytest.raises(
            ServiceError, match=r"lost \['narrow'\]: ModelError: normal rank"
        ):
            MultiTenantService.from_warmups(warmups, config)
        # Alone, the other tenant bootstraps under the same settings.
        alone = MultiTenantService.from_warmups({"wide": warmups["wide"]}, config)
        assert alone.tenants == ("wide",)

    def test_tenants_sharing_a_checkpoint_path_are_refused(self, tmp_path):
        """Engines configured with one checkpoint file would each write
        it on close, and only the last tenant's state would survive."""
        config = ServiceConfig(checkpoint_path=str(tmp_path / "shared.ckpt"))
        with pytest.raises(ServiceError, match="share the checkpoint path"):
            MultiTenantService.from_warmups(
                tenant_warmups("acme", "umbrella/eu"), config
            )
        services = {
            tenant_id: DetectionService.from_warmup(warmup, config=config)
            for tenant_id, warmup in tenant_warmups("a", "b").items()
        }
        with pytest.raises(ServiceError, match="'a' and 'b' share"):
            MultiTenantService(services)
        assert not (tmp_path / "shared.ckpt").exists()


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

    def test_unprefixed_ingest_counts_under_the_primary_tenant(
        self, run_server, front
    ):
        """``POST /ingest`` on a multi-tenant server is the primary
        tenant's ingest: its tenant counter sees those rows too."""
        engine = front.service("acme")
        server = run_server(engine, tenants=front)
        rows = fresh_rows("acme", 5)
        status, body = server.post_json("/ingest", {"rows": rows[:3].tolist()})
        assert status == 200 and body["accepted"] == 3
        status, body = server.post_json(
            "/ingest/acme", {"rows": rows[3:].tolist()}
        )
        assert status == 200 and body["accepted"] == 2
        assert engine.rows_ingested == 5
        tenant_rows = sample(
            front.metrics_text(), 'repro_tenant_rows_ingested_total{tenant="acme"}'
        )
        assert tenant_rows == sample(
            engine.metrics_text(), "repro_rows_ingested_total"
        )
        assert float(tenant_rows) == 5

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
    def test_restore_takes_fit_settings_from_the_checkpoint(
        self, run_server, tmp_path
    ):
        """A service bootstrapped at float32 and confidence 0.99 and
        restored under a default config — alone, or with every tenant —
        keeps the writer's fit settings: ``/version`` reports float32
        and the drift gauges carry the writer's bits."""
        config = ServiceConfig(dtype="float32", confidence=0.99)
        writer = MultiTenantService.from_warmups(
            tenant_warmups("acme"), config, checkpoint_dir=tmp_path
        )
        writer.ingest_block("acme", fresh_rows("acme", 80))
        expected = drift_gauges(writer.service("acme"))
        path = writer.checkpoint()["acme"]["path"]
        writer.close()

        alone = DetectionService.from_checkpoint(path, config=ServiceConfig())
        fleet = MultiTenantService.restore(tmp_path, config=ServiceConfig())
        for service, tenants in ((alone, None), (fleet.service("acme"), fleet)):
            assert service.lifecycle.dtype == np.float32
            assert service.lifecycle.confidence == 0.99
            server = run_server(service, tenants=tenants)
            status, info = server.get_json("/version")
            assert status == 200 and info["dtype"] == "float32"
            assert drift_gauges(service) == expected

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
        """Regression: two tenants and an unrelated detection service
        checkpoint into the same directory at the same time; every
        artifact restores bit-identically."""
        dataset, warmup = service_split
        front = MultiTenantService.from_warmups(
            tenant_warmups("acme", "umbrella/eu"), checkpoint_dir=tmp_path
        )
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
            threading.Thread(target=run, args=(front.checkpoint,)),
            threading.Thread(target=run, args=(service.checkpoint,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

        blocks = {
            tenant_id: fresh_rows(tenant_id, 12)
            for tenant_id in front.tenants
        }
        expected = {
            tenant_id: front.ingest_block(tenant_id, block).outcomes
            for tenant_id, block in blocks.items()
        }
        restored = MultiTenantService.restore(tmp_path)
        # The service's checkpoint shares the lifecycle format, so the
        # restore serves it as one more tenant; the real tenants come
        # back regardless, undisturbed.
        assert set(front.tenants) <= set(restored.tenants)
        for tenant_id, block in blocks.items():
            outcomes = restored.ingest_block(tenant_id, block).outcomes
            assert outcomes == expected[tenant_id]

        stream = dataset.link_traffic[warmup : warmup + 5]
        expected_spe = [service.ingest_row(row).spe for row in stream]
        restored_svc = DetectionService.from_checkpoint(
            tenant_checkpoint_path(tmp_path, "standalone-svc")
        )
        spe = [restored_svc.ingest_row(row).spe for row in stream]
        assert spe == expected_spe
        service.close()
        restored_svc.close()

    def test_fleet_layout_restores_bitwise(self, tmp_path):
        """A directory written the way the earlier fleet scheduler wrote
        one — each lifecycle checkpointed under its tenant path with the
        tenant and its fault policy as extra state — restores through
        :meth:`MultiTenantService.restore`: every tenant serves the same
        SPE, flags, thresholds and model versions."""
        warmups = {
            tenant_id: synthetic_tenant_traffic(tenant_id, WARMUP, links=12)
            for tenant_id in ("acme", "umbrella/eu", "ten%ant")
        }
        writer = MultiTenantService.from_warmups(warmups)
        for tenant_id in writer.tenants:
            writer.service(tenant_id).lifecycle.checkpoint(
                tenant_checkpoint_path(tmp_path, tenant_id),
                extra={"tenant": tenant_id, "fault_policy": "partial"},
            )
        blocks = {
            tenant_id: synthetic_tenant_traffic(
                tenant_id, 32, links=12, anomalies=4, start_row=WARMUP
            )
            for tenant_id in warmups
        }
        expected = {
            tenant_id: writer.ingest_block(tenant_id, block).outcomes
            for tenant_id, block in blocks.items()
        }
        assert all(
            any(outcome.flag for outcome in outcomes)
            for outcomes in expected.values()
        )

        restored = MultiTenantService.restore(tmp_path)
        assert sorted(restored.tenants) == sorted(warmups)
        for tenant_id, block in blocks.items():
            outcomes = restored.ingest_block(tenant_id, block).outcomes
            assert outcomes == expected[tenant_id]


class TestCheckpointPaths:
    @pytest.mark.parametrize(
        "tenant_id",
        ["plain", "umbrella/eu", "a b c", "..", "ten%ant", "ünïcode"],
    )
    def test_roundtrip_and_containment(self, tmp_path, tenant_id):
        path = tenant_checkpoint_path(tmp_path, tenant_id)
        assert path.parent == tmp_path / "tenants"
        assert unquote(path.name[: -len(".ckpt")]) == tenant_id

    def test_distinct_tenants_never_collide(self, tmp_path):
        ids = ["a/b", "a%2Fb", "a b", "a+b", "a", "b", "a.b", "a..b"]
        paths = {tenant_checkpoint_path(tmp_path, t) for t in ids}
        assert len(paths) == len(ids)

    def test_listing_inverts_the_path(self, tmp_path):
        """Ids with ``/``, ``%`` and non-ASCII characters survive a
        write then a listing; pairs come in file-name order."""
        ids = ["umbrella/eu", "a/b", "a%2Fb", "ten%ant", "ünïcode", "plain"]
        for tenant_id in ids:
            path = tenant_checkpoint_path(tmp_path, tenant_id)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(tenant_id.encode("utf-8"))
        listed = tenant_checkpoints(tmp_path)
        assert sorted(tenant_id for tenant_id, _ in listed) == sorted(ids)
        for tenant_id, path in listed:
            assert path == tenant_checkpoint_path(tmp_path, tenant_id)
            assert path.read_bytes() == tenant_id.encode("utf-8")
        paths = [path for _, path in listed]
        assert paths == sorted(paths)
        assert tenant_checkpoints(tmp_path / "missing") == []

    def test_rejects_non_string_ids(self, tmp_path):
        with pytest.raises(FleetError):
            tenant_checkpoint_path(tmp_path, "")
        with pytest.raises(FleetError):
            tenant_checkpoint_path(tmp_path, 7)
