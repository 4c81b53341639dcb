"""Multi-tenant front for the always-on detection service.

:class:`MultiTenantService` is the one tenant registry: it routes
ingest traffic to one :class:`~repro.service.engine.DetectionService`
engine per tenant and adds the plumbing the single-tenant engine
deliberately lacks:

* **per-tenant routes** — the HTTP server maps ``POST /ingest/<tenant>``
  here (see :mod:`repro.service.http`); unknown tenants are a typed
  rejection, never a crash;
* **per-tenant metrics labels** — a registry of its own tracks
  ``repro_tenant_rows_ingested_total{tenant=...}``,
  ``repro_tenant_alarms_total{tenant=...}`` and
  ``repro_tenant_ingest_errors_total{tenant=...}`` so one scrape shows
  every tenant's traffic without colliding with the per-engine
  registries (each engine keeps its own unlabeled metrics);
* **namespaced checkpoints** — :meth:`~MultiTenantService.checkpoint`
  writes every tenant under :func:`tenant_checkpoint_path` inside one
  directory, so concurrent tenant checkpoints never clobber each other
  and :meth:`~MultiTenantService.restore` brings every tenant back
  bit-identically; two engines configured with one checkpoint file are
  refused.

:meth:`~MultiTenantService.from_warmups` builds each engine with
:meth:`DetectionService.from_warmup
<repro.service.engine.DetectionService.from_warmup>`, so a tenant's
first model version is fitted as a single service's is.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from repro.exceptions import FleetError, ServiceError
from repro.service.engine import (
    BlockResult,
    DetectionService,
    RowOutcome,
    ServiceConfig,
)
from repro.service.lifecycle import warmup_history
from repro.service.metrics import MetricsRegistry

__all__ = [
    "MultiTenantService",
    "tenant_checkpoint_path",
    "tenant_checkpoints",
]

#: File suffix of per-tenant checkpoints inside a tenant directory.
_CHECKPOINT_SUFFIX = ".ckpt"


def tenant_checkpoint_path(root: str | Path, tenant_id: str) -> Path:
    """Collision-free checkpoint path for ``tenant_id`` under ``root``.

    Tenant ids are arbitrary strings; percent-encoding them (no safe
    characters) maps distinct ids to distinct filenames — ``"a/b"`` and
    ``"a%2Fb"`` cannot collide, and path separators never escape the
    ``tenants/`` namespace.  The encoding is reversible, so a restore
    can recover every tenant id from a directory listing alone.
    """
    tenant_id = _validate_tenant_id(tenant_id)
    encoded = quote(tenant_id, safe="")
    return Path(root) / "tenants" / f"{encoded}{_CHECKPOINT_SUFFIX}"


def tenant_checkpoints(root: str | Path) -> list[tuple[str, Path]]:
    """``(tenant_id, path)`` of every checkpoint under ``root``, in
    file-name order: the inverse of :func:`tenant_checkpoint_path`."""
    paths = sorted((Path(root) / "tenants").glob(f"*{_CHECKPOINT_SUFFIX}"))
    return [(unquote(path.name[: -len(_CHECKPOINT_SUFFIX)]), path) for path in paths]


def _validate_tenant_id(tenant_id) -> str:
    if not isinstance(tenant_id, str) or not tenant_id:
        raise FleetError(
            f"tenant id must be a non-empty string, got {tenant_id!r}"
        )
    return tenant_id


class MultiTenantService:
    """One detection engine per tenant behind shared routes and metrics."""

    def __init__(
        self,
        services: Mapping[str, DetectionService],
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if not services:
            raise ServiceError("a multi-tenant service needs >= 1 tenant")
        self._services: dict[str, DetectionService] = {}
        # Each engine's close() writes its own checkpoint file: two
        # tenants on one file would silently keep only the last writer.
        owners: dict[Path, str] = {}
        for tenant_id, service in services.items():
            self._services[_validate_tenant_id(tenant_id)] = service
            path = service.config.checkpoint_path
            if path is None:
                continue
            owner = owners.setdefault(Path(path).resolve(), tenant_id)
            if owner != tenant_id:
                raise ServiceError(
                    f"tenants {owner!r} and {tenant_id!r} share the "
                    f"checkpoint path {path}; give each tenant its own "
                    "(checkpoint_dir namespaces them)"
                )
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        registry = MetricsRegistry()
        self.metrics = registry
        self._m_tenants = registry.gauge(
            "repro_tenants", "Tenants currently served."
        )
        self._m_rows = registry.counter(
            "repro_tenant_rows_ingested_total",
            "Rows accepted and scored, by tenant.",
            label="tenant",
        )
        self._m_alarms = registry.counter(
            "repro_tenant_alarms_total",
            "Rows whose SPE exceeded the threshold, by tenant.",
            label="tenant",
        )
        self._m_errors = registry.counter(
            "repro_tenant_ingest_errors_total",
            "Rejected rows, by tenant.",
            label="tenant",
        )
        self._m_tenants.set(len(self._services))

    # ------------------------------------------------------------------
    @classmethod
    def from_warmups(
        cls,
        warmups: Mapping[str, np.ndarray],
        config: ServiceConfig | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> "MultiTenantService":
        """Bootstrap one engine per tenant from per-tenant warmups.

        Each engine is :meth:`DetectionService.from_warmup
        <repro.service.engine.DetectionService.from_warmup>` of its
        warmup, in warmup order.  A bad tenant id, or a warmup that
        bootstrap would refuse, raises its own typed error before any
        tenant is fitted; tenants whose fit raises are named, with their
        causes, in one :class:`~repro.exceptions.ServiceError`.  Every
        engine shares ``config`` except the checkpoint path, which is
        tenant-namespaced under ``checkpoint_dir`` so the engines' own
        checkpoint-on-close writes can never collide.
        """
        config = config or ServiceConfig()
        for tenant_id, warmup in warmups.items():  # refuse before any fit
            _validate_tenant_id(tenant_id)
            warmup_history(warmup)
        services, lost = {}, {}
        for tenant_id, warmup in warmups.items():
            tenant_config = config
            if checkpoint_dir is not None:
                tenant_config = config.with_overrides(
                    checkpoint_path=str(
                        tenant_checkpoint_path(checkpoint_dir, tenant_id)
                    )
                )
            try:
                services[tenant_id] = DetectionService.from_warmup(
                    warmup, config=tenant_config
                )
            except Exception as err:  # noqa: BLE001 - named below
                lost[tenant_id] = f"{type(err).__name__}: {err}"
        if lost:
            raise ServiceError(
                f"tenant bootstrap lost {list(lost)}: "
                + "; ".join(lost.values())
            )
        return cls(services, checkpoint_dir=checkpoint_dir)

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str | Path,
        config: ServiceConfig | None = None,
    ) -> "MultiTenantService":
        """Rebuild every tenant engine from a namespaced directory.

        Each restored engine refits from its checkpointed rows under the
        fit settings in its checkpoint, so every tenant scores
        bit-identically to the service that wrote the checkpoints;
        ``config`` supplies only the serving settings.
        """
        root = Path(checkpoint_dir)
        checkpoints = tenant_checkpoints(root)
        if not checkpoints:
            raise ServiceError(f"no tenant checkpoints under {root / 'tenants'}")
        config = config or ServiceConfig()
        services = {}
        for tenant_id, path in checkpoints:
            services[tenant_id] = DetectionService.from_checkpoint(
                path,
                config=config.with_overrides(checkpoint_path=str(path)),
            )
        return cls(services, checkpoint_dir=root)

    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._services)

    def service(self, tenant_id: str) -> DetectionService:
        """The tenant's engine; unknown tenants raise a typed error."""
        try:
            return self._services[tenant_id]
        except KeyError:
            raise ServiceError(f"unknown tenant {tenant_id!r}") from None

    def ingest_row(
        self, tenant_id: str, row, bin_id: int | None = None
    ) -> RowOutcome:
        """Route one row to its tenant: a one-row :meth:`ingest_block`.

        Raises the row's :class:`~repro.exceptions.IngestError` on
        rejection, and flushes the tenant's event log before it returns,
        like :meth:`DetectionService.ingest_row`.
        """
        events = self.service(tenant_id).events
        try:
            result = self.ingest_block(
                tenant_id, [row], bins=None if bin_id is None else [bin_id]
            )
        finally:
            events.flush()
        if result.rejected is not None:
            raise result.rejected
        return result.outcomes[0]

    def ingest_block(
        self, tenant_id: str, rows, bins=None
    ) -> BlockResult:
        """Route one block to its tenant in a single pass.

        One engine lookup and one labeled-counter update per block: the
        tenant's
        :meth:`~repro.service.engine.DetectionService.ingest_block`
        does the scoring, and the fleet counters fold the block's
        accepted/alarm/reject totals in one increment each — the only
        place the tenant counters change.  The totals are read off the
        result's segments, so routing builds no per-row outcome.
        """
        service = self.service(tenant_id)
        result = service.ingest_block(rows, bins=bins)
        if result.accepted:
            self._m_rows.inc(float(result.accepted), label_value=tenant_id)
        alarms = result.alarms
        if alarms:
            self._m_alarms.inc(float(alarms), label_value=tenant_id)
        if result.rejected is not None:
            self._m_errors.inc(label_value=tenant_id)
        return result

    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Fleet-level exposition (tenant-labeled counters only)."""
        return self.metrics.render()

    def health(self) -> dict:
        tenants = {t: s.health() for t, s in self._services.items()}
        ok = all(h.get("status") == "ok" for h in tenants.values())
        return {
            "status": "ok" if ok else "degraded",
            "tenants": tenants,
        }

    def checkpoint(self, root: str | Path | None = None) -> dict[str, dict]:
        """Checkpoint every tenant engine under namespaced paths."""
        root = self.checkpoint_dir if root is None else Path(root)
        if root is None:
            raise ServiceError(
                "no checkpoint directory: pass root= or set checkpoint_dir"
            )
        written = {}
        for tenant_id, service in self._services.items():
            path = tenant_checkpoint_path(root, tenant_id)
            written[tenant_id] = service.checkpoint(str(path))
        return written

    def close(self) -> None:
        for service in self._services.values():
            service.close()
