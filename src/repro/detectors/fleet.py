"""The multi-tenant fleet as a registry detector.

:class:`FleetSubspaceDetector` partitions the link set into per-tenant
column groups, fits one independent subspace model per tenant on a
shared :class:`~repro.pipeline.fleet.FleetManager`, and scores with the
fleet's batched scheduler (same-width tenants ride a single stacked
kernel call).  Wrapping the fleet in the unified
:class:`~repro.detectors.base.Detector` contract lets the comparison
engine rank per-tenant modeling head-to-head against the monolithic
``subspace`` detector and the zone-fused ``sharded-subspace`` plane.

The fused statistic is the worst per-tenant threshold ratio
``max_k SPE_k / δ²_k`` — an alarm fires when *some* tenant's model
flags its slice.  The ratio has no closed-form limit, so
``threshold_at`` calibrates an empirical training-score quantile, the
same calibration the ``union``/``vote`` fusion modes and the temporal
baselines use.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import ResidualEnergyDetector
from repro.exceptions import ModelError
from repro.pipeline.fleet import FleetManager
from repro.pipeline.sharded import partition_links

__all__ = ["FleetSubspaceDetector"]


class FleetSubspaceDetector(ResidualEnergyDetector):
    """Per-tenant subspace models behind the fleet scheduler.

    Parameters
    ----------
    confidence:
        Default confidence level (per-tenant Q-limits and the fused
        operating point).
    tenants:
        Link partitions / tenant models (clamped to the link count at
        fit time).
    scheme:
        Link partition scheme (``"contiguous"`` or ``"round-robin"``).
    threshold_sigma, normal_rank:
        Per-tenant model parameters.
    workers:
        Shared-pool workers for the tenant fits (1 = in-process; the
        fitted models are identical either way).
    """

    def __init__(
        self,
        confidence: float = 0.999,
        tenants: int = 2,
        scheme: str = "contiguous",
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        workers: int = 1,
    ) -> None:
        super().__init__(name="fleet-subspace", confidence=confidence)
        if tenants < 1:
            raise ModelError(f"tenants must be >= 1, got {tenants}")
        self.tenants = tenants
        self.scheme = scheme
        self.threshold_sigma = threshold_sigma
        self.normal_rank = normal_rank
        self.workers = workers
        self._fleet: FleetManager | None = None
        self._zones: tuple[np.ndarray, ...] | None = None
        self._train_scores: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fleet is not None

    @property
    def fleet(self) -> FleetManager:
        """The fitted fleet (per-tenant versioned models + scheduler)."""
        self._require_fitted()
        return self._fleet

    def _tenant_blocks(self, block: np.ndarray) -> dict[str, np.ndarray]:
        return {
            f"zone-{i:03d}": np.ascontiguousarray(block[:, zone])
            for i, zone in enumerate(self._zones)
        }

    def fit(self, measurements: np.ndarray) -> "FleetSubspaceDetector":
        block = self._as_block(measurements)
        self._zones = partition_links(
            block.shape[1], min(self.tenants, block.shape[1]), self.scheme
        )
        fleet = FleetManager(
            workers=self.workers,
            confidence=self.confidence,
            threshold_sigma=self.threshold_sigma,
            normal_rank=self.normal_rank,
        )
        self._fleet = fleet
        for tenant_id, tenant_block in self._tenant_blocks(block).items():
            fleet.add_tenant(tenant_id, tenant_block)
        fleet.fit(strict=True)
        self._train_scores = self._fused(block)
        return self

    def _fused(self, block: np.ndarray) -> np.ndarray:
        alarms = self._fleet.score(self._tenant_blocks(block))
        # A tenant whose normal subspace spans its whole slice scores
        # exactly 0 against a zero threshold: it can never alarm — its
        # ratio is 0, never 0/0.
        ratios = np.stack(
            [
                a.spe / a.threshold
                if a.threshold > 0
                else np.where(a.spe > 0, np.inf, 0.0)
                for a in alarms.values()
            ]
        )
        return ratios.max(axis=0)

    def score(self, measurements: np.ndarray) -> np.ndarray:
        self._require_fitted()
        block = self._as_block(measurements)
        if block.shape[1] != sum(len(z) for z in self._zones):
            raise ModelError(
                f"measurements have {block.shape[1]} links, fleet was "
                f"fitted on {sum(len(z) for z in self._zones)}"
            )
        return self._fused(block)

    def threshold_at(self, confidence: float) -> float:
        self._require_fitted()
        return float(np.quantile(self._train_scores, confidence))
