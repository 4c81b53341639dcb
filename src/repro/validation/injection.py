"""Synthetic anomaly injection study (§6.3).

The paper's most systematic experiment: insert a spike of a chosen size
into *every* OD flow at *every* timestep of a day, and record whether the
subspace method detects it, identifies the right flow, and estimates its
size.  Naively that is ``T × N`` full diagnosis runs; this module
vectorizes the whole sweep with the algebra below, and keeps a naive
per-cell implementation for cross-validation.

For an injection of ``b`` bytes into flow ``i`` at time ``t`` the link
vector becomes ``y + b·A_i``, so with ``R`` the residual matrix of the
unmodified trace:

* ``SPE′(t, i) = SPE(t) + 2b·(R Bᵀ)(t, i) + b²·‖B_i‖²`` with ``B = C̃A``;
* identification scores over candidates ``j``:
  ``(G(t, j) + b·M(j, i))² / d_j`` with ``G = R Θ``, ``M = Θᵀ C̃ A``,
  ``d_j = ‖C̃ θ_j‖²``;
* the winning candidate's magnitude
  ``f̂ = (G(t, ĵ) + b·M(ĵ, i)) / d_ĵ`` quantifies as
  ``f̂·‖A_ĵ‖ / ΣA_ĵ``.

The PCA model is fitted once on the unmodified week (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detection import SPEDetector
from repro.core.identification import IdentificationState, identify_single_flow
from repro.core.quantification import quantify
from repro.datasets.dataset import Dataset
from repro.exceptions import ValidationError

__all__ = ["InjectionStudy", "InjectionResult"]


@dataclass(frozen=True)
class InjectionResult:
    """Outcome of one injection sweep.

    Arrays are ``(num_times, num_flows)``; cell ``(t, i)`` describes the
    experiment that injected into flow ``i`` at time bin ``time_bins[t]``.

    Attributes
    ----------
    size_bytes:
        The injected spike size.
    time_bins, flow_indices:
        The sweep's axes.
    detected:
        Did SPE exceed the threshold after injection?
    identified:
        Was the injected flow the identification winner?  (Evaluated
        regardless of detection; mask with ``detected`` for the paper's
        conditional metric.)
    estimated_bytes:
        Quantification estimate for the *identified* flow.
    spe_after:
        The post-injection ``SPE′(t, i)`` grid the detections came from;
        kept so threshold sweeps (e.g. the pipeline ``BatchRunner``) can
        re-threshold without recomputing it.
    """

    size_bytes: float
    time_bins: np.ndarray
    flow_indices: np.ndarray
    detected: np.ndarray
    identified: np.ndarray
    estimated_bytes: np.ndarray
    spe_after: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def detection_rate(self) -> float:
        """Overall fraction of injections detected."""
        return float(self.detected.mean()) if self.detected.size else 0.0

    @property
    def identification_rate(self) -> float:
        """Fraction of *detected* injections correctly identified."""
        detected = self.detected
        if not detected.any():
            return 0.0
        return float(self.identified[detected].mean())

    @property
    def mean_quantification_error(self) -> float:
        """Mean |estimate − size| / size over detected + identified cells."""
        mask = self.detected & self.identified
        if not mask.any():
            return float("nan")
        errors = (
            np.abs(np.abs(self.estimated_bytes[mask]) - self.size_bytes)
            / self.size_bytes
        )
        return float(errors.mean())

    def detection_rate_by_flow(self) -> np.ndarray:
        """Per-flow detection rate (over time) — paper Fig. 7 / Fig. 9."""
        return self.detected.mean(axis=0)

    def detection_rate_by_time(self) -> np.ndarray:
        """Per-timestep detection rate (over flows) — paper Fig. 8."""
        return self.detected.mean(axis=1)


class InjectionStudy:
    """Vectorized §6.3 injection experiments over one dataset.

    Parameters
    ----------
    dataset:
        The evaluation world; the detector is fitted on its (unmodified)
        link traffic.
    confidence:
        Q-statistic confidence level (paper: 0.999).
    normal_rank:
        Optional explicit subspace rank (ablations).
    detector:
        An already-fitted :class:`~repro.core.detection.SPEDetector` to
        reuse instead of fitting a fresh one (``confidence`` and
        ``normal_rank`` are then ignored).  Lets scenario drivers share
        one model between their baseline and injection passes.
    """

    def __init__(
        self,
        dataset: Dataset,
        confidence: float = 0.999,
        normal_rank: int | None = None,
        detector: SPEDetector | None = None,
    ) -> None:
        self.dataset = dataset
        if detector is None:
            detector = SPEDetector(
                confidence=confidence, normal_rank=normal_rank
            ).fit(dataset.link_traffic)
        self.detector = detector
        model = self.detector.model
        routing = dataset.routing

        self._a = routing.matrix  # (m, n)
        # θ, d_j = ‖C̃ θ_j‖², the visibility mask and 1/d_j.
        self._identification = IdentificationState(
            model, routing.normalized_columns()
        )
        self._theta = self._identification.directions  # (m, n)
        self._b_mat = model.anomalous_projector @ self._a  # C̃ A
        self._m_mat = self._theta.T @ self._b_mat  # M = Θᵀ C̃ A  (n, n)
        self._quant_ratio = routing.quantification_ratios()
        self._residuals = model.residual(dataset.link_traffic)  # (t, m)
        self._spe = np.einsum("ij,ij->i", self._residuals, self._residuals)

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The fitted SPE limit."""
        return self.detector.threshold

    def spe_after(
        self, size_bytes: float, time_bins: np.ndarray, flow_indices: np.ndarray
    ) -> np.ndarray:
        """``SPE′(t, i)`` after injecting ``size_bytes`` into each cell.

        The closed form of the module docstring, vectorized over the
        whole ``times × flows`` grid.  Exposed so threshold sweeps (e.g.
        the pipeline :class:`~repro.pipeline.batch.BatchRunner`) can
        compare one grid against many limits without re-deriving it.
        """
        b = float(size_bytes)
        b_sel = self._b_mat[:, flow_indices]  # (m, n_sel)
        cross = self._residuals[time_bins] @ b_sel  # (T, n_sel)
        energy = np.einsum("ij,ij->j", b_sel, b_sel)  # (n_sel,)
        return self._spe[time_bins, None] + 2.0 * b * cross + b * b * energy

    def run(
        self,
        size_bytes: float,
        time_bins: np.ndarray | None = None,
        flow_indices: np.ndarray | None = None,
        chunk_bins: int = 24,
    ) -> InjectionResult:
        """Sweep injections of ``size_bytes`` over times × flows.

        Parameters
        ----------
        size_bytes:
            Spike magnitude (positive adds traffic; the paper injects
            positive spikes).
        time_bins:
            Bins to inject at; defaults to the first day (144 bins).
        flow_indices:
            Flows to inject into; defaults to all.
        chunk_bins:
            Time bins processed per vectorized block (memory knob: each
            block materializes a ``chunk × n × n`` score tensor).
        """
        if size_bytes == 0:
            raise ValidationError("size_bytes must be non-zero")
        if chunk_bins < 1:
            raise ValidationError(f"chunk_bins must be >= 1, got {chunk_bins}")
        t_total = self.dataset.num_bins
        if time_bins is None:
            time_bins = np.arange(min(144, t_total))
        time_bins = np.asarray(time_bins, dtype=np.int64)
        if time_bins.size == 0:
            raise ValidationError("time_bins is empty")
        if time_bins.min() < 0 or time_bins.max() >= t_total:
            raise ValidationError(
                f"time_bins outside trace of {t_total} bins"
            )
        if flow_indices is None:
            flow_indices = np.arange(self.dataset.num_flows)
        flow_indices = np.asarray(flow_indices, dtype=np.int64)
        if flow_indices.size == 0:
            raise ValidationError("flow_indices is empty")
        if flow_indices.min() < 0 or flow_indices.max() >= self.dataset.num_flows:
            raise ValidationError("flow_indices out of range")

        b = float(size_bytes)
        threshold = self.detector.threshold
        n_sel = flow_indices.size

        # Detection: SPE'(t, i) for the selected flows.
        spe_grid = self.spe_after(b, time_bins, flow_indices)
        detected = spe_grid > threshold

        # Identification + quantification, chunked over time.
        valid = self._identification.valid  # (n,)
        inv_d = self._identification.inv_energy  # (n,)
        g_all = self._residuals[time_bins] @ self._theta  # (T, n)
        m_sel = self._m_mat[:, flow_indices]  # (n, n_sel)

        identified = np.zeros((time_bins.size, n_sel), dtype=bool)
        estimated = np.full((time_bins.size, n_sel), np.nan)
        for start in range(0, time_bins.size, chunk_bins):
            stop = min(start + chunk_bins, time_bins.size)
            g_chunk = g_all[start:stop]  # (c, n)
            # inner(t, i, j) = G(t, j) + b·M(j, i)
            inner = g_chunk[:, None, :] + b * m_sel.T[None, :, :]
            scores = inner**2 * inv_d[None, None, :]
            scores[:, :, ~valid] = -np.inf
            winners = np.argmax(scores, axis=2)  # (c, n_sel)
            identified[start:stop] = winners == flow_indices[None, :]
            take = np.take_along_axis(inner, winners[:, :, None], axis=2)[:, :, 0]
            f_hat = take * inv_d[winners]
            estimated[start:stop] = f_hat * self._quant_ratio[winners]

        return InjectionResult(
            size_bytes=b,
            time_bins=time_bins,
            flow_indices=flow_indices,
            detected=detected,
            identified=identified,
            estimated_bytes=estimated,
            spe_after=spe_grid,
        )

    # ------------------------------------------------------------------
    def run_naive_cell(
        self, size_bytes: float, time_bin: int, flow_index: int
    ) -> tuple[bool, bool, float]:
        """One injection via the full (slow) diagnosis path.

        Used by the test suite to cross-validate the vectorized sweep.
        Returns ``(detected, identified, estimated_bytes)``.
        """
        y = self.dataset.link_traffic[time_bin].copy()
        y = y + size_bytes * self._a[:, flow_index]
        model = self.detector.model
        spe = float(model.spe(y))
        detected = spe > self.detector.threshold
        identification = identify_single_flow(model, self._theta, y)
        identified = identification.flow_index == flow_index
        estimated = quantify(
            model, self.dataset.routing, y, identification
        )
        return detected, identified, estimated
