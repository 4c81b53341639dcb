"""The streaming (incremental-tracker) subspace method as a detector.

:class:`StreamingSubspaceDetector` puts the library's single streaming
engine — the exponentially weighted
:class:`~repro.core.incremental.IncrementalSubspaceTracker` behind
:class:`~repro.pipeline.streaming.StreamingDetector` — behind the batch
:class:`~repro.detectors.base.Detector` contract, so grid drivers and
the registry can sweep it next to the batch subspace method and the
temporal baselines.  ``fit`` performs the batch warm-up (PCA + 3σ
separation) and seeds the tracker from the batch moments; ``score`` is
the tracker's SPE under the warmed-up basis (stateless — the live,
folding surface is :meth:`streaming`).

Registered as ``streaming-subspace`` with the ``online-subspace`` and
``incremental-subspace`` aliases; the contract suite pins its scores to
the tracker's own so the registry and streaming surfaces cannot drift
apart.
"""

from __future__ import annotations

import numpy as np

from repro.core.qstatistic import q_threshold
from repro.detectors.base import ResidualEnergyDetector
from repro.pipeline.pipeline import DetectionPipeline
from repro.pipeline.streaming import StreamingDetector

__all__ = ["StreamingSubspaceDetector"]


class StreamingSubspaceDetector(ResidualEnergyDetector):
    """Batch-contract adapter over the incremental subspace tracker.

    Parameters
    ----------
    confidence:
        Default Q-statistic confidence level.
    threshold_sigma, normal_rank:
        Warm-up separation parameters (as for
        :class:`~repro.core.detection.SPEDetector`).
    forgetting:
        Exponential forgetting factor of the tracker (effective memory
        ``1 / forgetting`` arrivals).
    """

    def __init__(
        self,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        forgetting: float = 1.0 / 1008.0,
    ) -> None:
        super().__init__(name="streaming-subspace", confidence=confidence)
        self.threshold_sigma = threshold_sigma
        self.normal_rank = normal_rank
        self.forgetting = forgetting
        self._streaming: StreamingDetector | None = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._streaming is not None

    @property
    def tracker(self):
        """The underlying warmed-up incremental tracker."""
        self._require_fitted()
        return self._streaming.tracker

    def fit(self, measurements: np.ndarray) -> "StreamingSubspaceDetector":
        block = self._as_block(measurements)
        pipeline = DetectionPipeline(
            confidence=self.confidence,
            threshold_sigma=self.threshold_sigma,
            normal_rank=self.normal_rank,
        ).fit(block)
        self._streaming = pipeline.streaming(forgetting=self.forgetting)
        return self

    def score(self, measurements: np.ndarray) -> np.ndarray:
        """SPE under the current tracked basis (no state update)."""
        self._require_fitted()
        return self._streaming.tracker.spe_block(self._as_block(measurements))

    def threshold_at(self, confidence: float) -> float:
        self._require_fitted()
        tracker = self._streaming.tracker
        return float(
            q_threshold(
                tracker.eigenvalues[tracker.normal_rank :],
                confidence=confidence,
            )
        )

    # ------------------------------------------------------------------
    def streaming(self) -> StreamingDetector:
        """The live (stateful, folding) streaming surface."""
        self._require_fitted()
        return self._streaming
