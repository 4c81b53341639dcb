"""The ``repro fleet run`` harness: the tenant stack's three gates.

Tenants are served by :class:`~repro.service.tenants.MultiTenantService`,
one :class:`~repro.service.engine.DetectionService` engine each, whose
first model versions :func:`~repro.service.tenants.bootstrap_lifecycles`
fits in-process or on one shared supervised pool.
:func:`run_fleet_check` drives that stack over deterministic
:func:`synthetic_tenant_traffic` and asserts, bit for bit, that a pooled
bootstrap serves what an in-process one does, that a crashed tenant's
loss leaves every other tenant untouched, and that a checkpointed stack
restores exactly.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import FleetError

__all__ = ["run_fleet_check", "synthetic_tenant_traffic"]


def synthetic_tenant_traffic(
    tenant_id: str,
    rows: int,
    links: int = 24,
    anomalies: int = 0,
    seed: int = 0,
    start_row: int = 0,
) -> np.ndarray:
    """Deterministic per-tenant traffic for harnesses and benchmarks.

    Low-rank diurnal-ish structure plus noise, keyed by a CRC of the
    tenant id (two tenants never share a stream; the same tenant always
    gets the same stream).  ``start_row`` continues the same tenant's
    diurnal phase, so a scoring block generated at
    ``start_row=warmup_rows`` follows the distribution a model fitted
    on the warmup expects; ``anomalies`` rows then receive a large
    additive spike on a few links so detection has something to flag.
    """
    if rows < 1 or links < 1:
        raise FleetError(f"rows and links must be >= 1, got {rows}x{links}")
    mix = zlib.crc32(f"tenant:{tenant_id}".encode()) ^ (seed & 0xFFFFFFFF)
    rng = np.random.default_rng(mix)
    rank = min(3, links)
    loadings = rng.normal(size=(rank, links))
    phases = rng.uniform(0, 2 * np.pi, size=rank)
    t = np.arange(start_row, start_row + rows)[:, None]
    factors = 10.0 * np.sin(
        2 * np.pi * t / 96.0 + phases
    ) + rng.normal(scale=2.0, size=(rows, rank))
    traffic = 500.0 + factors @ loadings
    traffic += rng.normal(scale=1.0, size=(rows, links))
    if anomalies:
        anomalies = min(int(anomalies), rows)
        spiked = rng.choice(rows, size=anomalies, replace=False)
        hit_links = rng.choice(links, size=max(1, links // 8), replace=False)
        traffic[np.ix_(spiked, hit_links)] += 200.0
    return traffic


def run_fleet_check(
    num_tenants: int = 6,
    warmup_rows: int = 240,
    score_rows: int = 96,
    links: int = 24,
    workers: int = 2,
    crash_tenant: int = 0,
    max_retries: int = 2,
    checkpoint_dir: str | Path | None = None,
    seed: int = 0,
) -> dict:
    """End-to-end check of the tenant stack: parity, isolation, restore.

    The harness behind ``repro fleet run`` and the CI smoke step.  Each
    gate serves every tenant's score block through a
    :class:`~repro.service.tenants.MultiTenantService` (synchronous
    refits every ``score_rows // 2`` rows, so the block crosses model
    versions) and compares the SPE, flags, thresholds and model versions
    it serves, bit for bit, with the service
    :meth:`~repro.service.tenants.MultiTenantService.from_warmups`
    builds in-process:

    1. **Parity** — tenants bootstrapped on a pool of ``workers`` serve
       every block as the in-process bootstrap does.
    2. **Isolation** — a worker crash injected into every attempt of one
       tenant's fit reports that tenant lost, with at least one worker
       death, and every surviving tenant serves as in gate 1.
    3. **Restore** — the gate-1 service, checkpointed before it serves
       and rebuilt by :meth:`~repro.service.tenants.MultiTenantService.
       restore`, serves as in gate 1 (requires ``checkpoint_dir``).

    Returns a JSON-able report; ``report["ok"]`` is the overall gate.
    """
    from repro.pipeline.faults import FaultPlan, WorkerFault
    from repro.service.engine import DetectionService, ServiceConfig
    from repro.service.tenants import MultiTenantService, bootstrap_lifecycles

    if num_tenants < 2:
        raise FleetError(
            f"the fleet check needs >= 2 tenants, got {num_tenants}"
        )
    tenant_ids = [f"tenant-{i:03d}" for i in range(num_tenants)]
    warmups = {
        t: synthetic_tenant_traffic(t, warmup_rows, links, seed=seed)
        for t in tenant_ids
    }
    score_blocks = {
        t: synthetic_tenant_traffic(
            t, score_rows, links, anomalies=4, seed=seed,
            start_row=warmup_rows,
        )
        for t in tenant_ids
    }
    config = ServiceConfig(
        refit_interval=max(1, score_rows // 2), synchronous_refit=True
    )

    def serve(front) -> dict:
        """``(spe, flags, thresholds, versions)`` ``front`` serves per
        tenant; closes ``front``."""
        served = {}
        for tenant_id in front.tenants:
            outcomes = front.ingest_block(
                tenant_id, score_blocks[tenant_id]
            ).outcomes
            served[tenant_id] = tuple(
                np.array([getattr(o, field) for o in outcomes])
                for field in ("spe", "flag", "threshold", "model_version")
            )
        front.close()
        return served

    def matches(served: dict) -> bool:
        return all(
            np.array_equal(got, want)
            for tenant_id, arrays in served.items()
            for got, want in zip(arrays, expected[tenant_id])
        )

    def engines(lifecycles) -> MultiTenantService:
        return MultiTenantService({
            t: DetectionService(lifecycle, config=config)
            for t, lifecycle in lifecycles.items()
        })

    expected = serve(MultiTenantService.from_warmups(warmups, config))

    # Gate 1: the pooled bootstrap serves what the in-process one does.
    lifecycles, fit_report = bootstrap_lifecycles(
        warmups, config, workers=workers, max_retries=max_retries
    )
    pooled = engines(lifecycles)
    if checkpoint_dir is not None:
        pooled.checkpoint(checkpoint_dir)
    parity_ok = (
        fit_report.clean
        and list(lifecycles) == tenant_ids
        and matches(serve(pooled))
    )

    # Gate 2: crash one tenant's fit on every attempt; its loss must
    # not move a bit of what any other tenant serves.
    crash_task = int(crash_tenant) % num_tenants
    crashed_id = tenant_ids[crash_task]
    plan = FaultPlan(
        faults=(
            WorkerFault(
                task=crash_task,
                action="crash",
                stage="tenant-fit",
                attempts=max_retries + 1,
            ),
        )
    )
    survivors, crash_report = bootstrap_lifecycles(
        warmups, config, workers=workers, fault_plan=plan,
        max_retries=max_retries,
    )
    deaths = sum(
        1
        for fault in crash_report.faults
        if fault.task == crash_task and fault.kind == "worker_death"
    )
    isolation_ok = (
        crash_report.lost_tasks == (crash_task,)
        and deaths >= 1
        and list(survivors) == [t for t in tenant_ids if t != crashed_id]
        and matches(serve(engines(survivors)))
    )

    # Gate 3: restore the gate-1 checkpoints and serve again.
    restore_ok = None
    if checkpoint_dir is not None:
        restored = MultiTenantService.restore(checkpoint_dir, config)
        restore_ok = sorted(restored.tenants) == sorted(tenant_ids) and (
            matches(serve(restored))
        )

    ok = parity_ok and isolation_ok and restore_ok is not False
    return {
        "ok": bool(ok),
        "parity_ok": bool(parity_ok),
        "isolation_ok": bool(isolation_ok),
        "restore_ok": restore_ok,
        "tenants": num_tenants,
        "workers": workers,
        "crashed_tenant": crashed_id,
        "crash_outcome": {
            "status": (
                "lost" if crash_task in crash_report.lost_tasks else "fitted"
            ),
            "worker_deaths": deaths,
            "report": crash_report.to_json(),
        },
        "alarms": {
            t: int(np.count_nonzero(expected[t][1])) for t in tenant_ids
        },
        "fit_report": fit_report.to_json(),
    }
