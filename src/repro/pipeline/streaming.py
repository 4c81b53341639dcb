"""Windowed streaming detection on the incremental subspace tracker.

The paper deploys the subspace method online (§7.1): the projection is
cheap to apply, and the model itself only needs occasional refreshes
because the normal subspace is stable week to week.
:class:`StreamingDetector` realizes that regime without ever refitting
from scratch:

* arrivals are processed in windows of ``window_bins`` vectors;
* each window is scored in one vectorized pass (one ``(k, m) @ (m, r)``
  product) against the model as of the window start;
* the window is then folded into exponentially weighted mean/covariance
  estimates via the closed-form block update of
  :class:`~repro.core.incremental.IncrementalSubspaceTracker`, and the
  eigendecomposition (an ``m × m`` problem) refreshes once per window.

For arrival-at-a-time processing, feed one-row windows with
``refresh=False``: the refresh then keeps the tracker's
``refresh_interval`` cadence in arrivals, and ``tracker.since_refresh``
is the model's age.

Flagged arrivals are identified and quantified against the *current*
basis when a routing matrix is supplied, using the same closed-form
scores as the batch path.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro._util import ensure_matrix
from repro.core.identification import flows_visible, identify_from_residuals
from repro.core.incremental import IncrementalSubspaceTracker
from repro.exceptions import ModelError
from repro.routing.routing_matrix import RoutingMatrix

__all__ = ["StreamingDetector", "StreamWindow"]


@dataclass(frozen=True)
class StreamWindow:
    """Outcome for one processed window of arrivals.

    Attributes
    ----------
    start_index:
        Arrival index of the window's first row (counting from the start
        of streaming).
    spe:
        Per-row squared prediction error under the window-start model.
    threshold:
        The SPE limit ``δ²_α`` the window was scored against.
    flags:
        Boolean per-row anomaly indicators.
    anomalous_bins:
        Absolute arrival indices of the flagged rows.
    flow_indices:
        Identified OD flow per flagged row (empty without routing, or
        when the window-start basis sees no flow).
    od_pairs:
        Identified flows as ``(origin, destination)`` PoP names.
    estimated_bytes:
        Quantified anomaly sizes, signed.
    """

    start_index: int
    spe: np.ndarray
    threshold: float
    flags: np.ndarray
    anomalous_bins: np.ndarray
    flow_indices: np.ndarray
    od_pairs: tuple[tuple[str, str], ...]
    estimated_bytes: np.ndarray

    @property
    def num_alarms(self) -> int:
        """Number of flagged rows in this window."""
        return int(np.count_nonzero(self.flags))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamWindow(start {self.start_index}, {self.flags.size} bins, "
            f"{self.num_alarms} alarms)"
        )


class StreamingDetector:
    """Score → identify → fold, one window at a time.

    Construct via :meth:`from_moments` (used by
    :meth:`DetectionPipeline.streaming
    <repro.pipeline.pipeline.DetectionPipeline.streaming>`) or around a
    tracker warmed up on a raw measurement block.

    Parameters
    ----------
    tracker:
        A warmed-up incremental subspace tracker.
    routing:
        Optional routing matrix enabling identification/quantification
        of flagged arrivals.
    """

    def __init__(
        self,
        tracker: IncrementalSubspaceTracker,
        routing: RoutingMatrix | None = None,
    ) -> None:
        self._tracker = tracker
        self._routing = routing
        self._theta: np.ndarray | None = None
        self._quant_ratio: np.ndarray | None = None
        if routing is not None:
            if routing.num_links != tracker.mean.shape[0]:
                raise ModelError(
                    f"routing matrix covers {routing.num_links} links but "
                    f"the tracker expects {tracker.mean.shape[0]}"
                )
            self._theta = routing.normalized_columns()
            self._quant_ratio = routing.quantification_ratios()
        self._arrivals = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_moments(
        cls,
        mean: np.ndarray,
        covariance: np.ndarray,
        normal_rank: int,
        forgetting: float = 1.0 / 1008.0,
        confidence: float = 0.999,
        routing: RoutingMatrix | None = None,
        refresh_interval: int | None = 36,
    ) -> "StreamingDetector":
        """Seed streaming from a batch-fitted mean and covariance."""
        tracker = IncrementalSubspaceTracker(
            normal_rank=normal_rank,
            forgetting=forgetting,
            confidence=confidence,
            refresh_interval=refresh_interval,
        ).warm_up_from_moments(mean, covariance)
        return cls(tracker, routing=routing)

    # ------------------------------------------------------------------
    @property
    def tracker(self) -> IncrementalSubspaceTracker:
        """The underlying incremental tracker."""
        return self._tracker

    @property
    def threshold(self) -> float:
        """Current SPE limit ``δ²_α``."""
        return self._tracker.threshold

    @property
    def arrivals(self) -> int:
        """Arrivals processed since streaming began."""
        return self._arrivals

    # ------------------------------------------------------------------
    def _identify(
        self,
        flagged: np.ndarray,
        mean: np.ndarray,
        basis: np.ndarray,
    ) -> tuple[np.ndarray, tuple[tuple[str, str], ...], np.ndarray]:
        """Closed-form identification of flagged rows under one basis.

        A basis that sees no flow in its residual subspace identifies
        nothing: its alarms stay unidentified, as without routing.
        """
        theta = self._theta  # (m, n), unit columns
        # ‖C̃ θ_j‖² = 1 − ‖Pᵀ θ_j‖² for an orthogonal projector and
        # unit-norm θ_j — no m × m projector ever materializes.
        p_theta = basis.T @ theta  # (r, n)
        energy = 1.0 - np.einsum("ij,ij->j", p_theta, p_theta)
        if not flows_visible(energy):
            return np.empty(0, dtype=np.int64), (), np.empty(0)
        centered = flagged - mean
        residual = centered - (centered @ basis) @ basis.T  # (k, m)
        identification = identify_from_residuals(residual, theta, energy)
        winners = identification.flow_indices
        od_pairs = tuple(self._routing.od_pairs[int(i)] for i in winners)
        return (
            winners,
            od_pairs,
            identification.magnitudes * self._quant_ratio[winners],
        )

    def process_window(
        self, measurements: np.ndarray, refresh: bool = True
    ) -> StreamWindow:
        """Score one window, diagnose its alarms, fold it into the model.

        Scoring uses the model as of the window start; the fold updates
        the exponentially weighted moments and refreshes the
        eigendecomposition once.  With ``refresh=False`` the refresh
        instead keeps the tracker's own ``refresh_interval`` cadence (in
        arrivals), which decouples window size from refresh schedule:
        one-row windows with ``refresh=False`` are per-arrival
        processing.  A window with a non-finite value raises
        :class:`~repro.exceptions.ModelError` and changes nothing.
        """
        measurements = ensure_matrix(
            measurements, name="window", error=ModelError, check_finite=False,
        )
        threshold = self._tracker.threshold
        start = self._arrivals

        # Snapshot the window-start model: alarms must be diagnosed under
        # the basis they were raised with, and the fold below moves it.
        mean = self._tracker.mean
        basis = self._tracker.normal_basis
        spe, flags = self._tracker.update_block(measurements, refresh=refresh)
        bins_in_window = np.nonzero(flags)[0]
        flow_indices = np.empty(0, dtype=np.int64)
        od_pairs: tuple[tuple[str, str], ...] = ()
        estimated = np.empty(0)
        if self._theta is not None and bins_in_window.size:
            flow_indices, od_pairs, estimated = self._identify(
                measurements[bins_in_window], mean, basis
            )
        self._arrivals += measurements.shape[0]
        return StreamWindow(
            start_index=start,
            spe=spe,
            threshold=threshold,
            flags=flags,
            anomalous_bins=start + bins_in_window,
            flow_indices=flow_indices,
            od_pairs=od_pairs,
            estimated_bytes=estimated,
        )

    def stream(
        self, measurements: np.ndarray, window_bins: int = 36
    ) -> Iterator[StreamWindow]:
        """Process a ``(t, m)`` block in windows of ``window_bins`` rows.

        The final window may be shorter.  Yields lazily so callers can
        act on alarms as each window completes.
        """
        measurements = ensure_matrix(
            measurements, name="measurements", error=ModelError,
            check_finite=False,
        )
        if window_bins < 1:
            raise ModelError(f"window_bins must be >= 1, got {window_bins}")
        for start in range(0, measurements.shape[0], window_bins):
            yield self.process_window(measurements[start : start + window_bins])
