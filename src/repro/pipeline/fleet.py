"""Deterministic per-tenant traffic for the multi-tenant service.

:func:`synthetic_tenant_traffic` gives every tenant id its own
reproducible stream, so tests and benchmarks can drive
:class:`~repro.service.tenants.MultiTenantService` without building a
network preset.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.exceptions import FleetError

__all__ = ["synthetic_tenant_traffic"]


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

