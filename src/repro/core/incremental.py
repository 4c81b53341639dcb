"""Incremental subspace tracking (§7.1, references [12, 13, 24]).

The paper notes that a straightforward SVD could become a bottleneck on
larger measurement ensembles, and points to decomposition-*updating*
methods.  This module implements the covariance-tracking variant: keep an
exponentially weighted estimate of the measurement mean and covariance,

    μ ← (1 − η)·μ + η·y
    Σ ← (1 − η)·Σ + η·(y − μ)(y − μ)ᵀ

and refresh the eigendecomposition (an ``m × m`` problem — tiny next to
the ``t × m`` SVD) only every ``refresh_interval`` arrivals.  Between
refreshes, each arrival costs one matrix-vector product, exactly the
online regime the paper describes.

A refresh point runs its eigensolve (and Q-limit) at once, so every
read of the model is the spectrum of the covariance at the last refresh
point.  Only finite rows are scored or folded: a non-finite arrival
raises :class:`~repro.exceptions.ModelError` and changes nothing.

:func:`principal_angles` quantifies subspace drift — the paper's
stability claim ("reasonably stable from week to week") in degrees.
"""

from __future__ import annotations

import numpy as np

from repro._util import ensure_matrix
from repro.core.qstatistic import q_threshold
from repro.core.subspace import score_block
from repro.core.suffstats import require_finite_rows
from repro.exceptions import ModelError, NotFittedError

__all__ = ["IncrementalSubspaceTracker", "covariance_spectrum", "principal_angles"]


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between two orthonormal column spans.

    The cosines are the singular values of ``Aᵀ B``; angles near zero
    mean the subspaces coincide.  Used to measure week-to-week stability
    of the normal subspace (§7.1).
    """
    basis_a = np.asarray(basis_a, dtype=np.float64)
    basis_b = np.asarray(basis_b, dtype=np.float64)
    if basis_a.ndim != 2 or basis_b.ndim != 2:
        raise ModelError("bases must be 2-D matrices with orthonormal columns")
    if basis_a.shape[0] != basis_b.shape[0]:
        raise ModelError(
            f"bases live in different spaces: {basis_a.shape[0]} vs "
            f"{basis_b.shape[0]} rows"
        )
    cosines = np.linalg.svd(basis_a.T @ basis_b, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def covariance_spectrum(covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clamped at 0) and eigenvectors of a
    symmetric covariance matrix, one ``eigh`` call."""
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    order = np.argsort(eigenvalues)[::-1]
    return np.maximum(eigenvalues[order], 0.0), eigenvectors[:, order]


class IncrementalSubspaceTracker:
    """Streaming subspace model with exponentially weighted statistics.

    Parameters
    ----------
    normal_rank:
        Rank of the normal subspace to track (use the batch 3σ rule on a
        warm-up window to choose it; the tracker keeps it fixed).
    forgetting:
        Weight ``η`` of each new sample in the running statistics.
        ``1/η`` is the effective memory in samples; the default (1/1008)
        remembers about one week of 10-minute bins.
    refresh_interval:
        Arrivals between eigendecomposition refreshes (1 = every sample,
        ``None`` = never refresh automatically — the model stays at its
        warm-up basis until a block fold asks for a refresh explicitly).
    confidence:
        Confidence level for the Q-statistic limit.
    """

    def __init__(
        self,
        normal_rank: int,
        forgetting: float = 1.0 / 1008.0,
        refresh_interval: int | None = 36,
        confidence: float = 0.999,
    ) -> None:
        if normal_rank < 0:
            raise ModelError(f"normal_rank must be >= 0, got {normal_rank}")
        if not 0.0 < forgetting < 1.0:
            raise ModelError(f"forgetting must lie in (0, 1), got {forgetting}")
        if refresh_interval is not None and refresh_interval < 1:
            raise ModelError(
                f"refresh_interval must be >= 1 or None, got {refresh_interval}"
            )
        if not 0.0 < confidence < 1.0:
            raise ModelError(f"confidence must lie in (0, 1), got {confidence}")
        self.normal_rank = normal_rank
        self.forgetting = forgetting
        self.refresh_interval = refresh_interval
        self.confidence = confidence

        self._mean: np.ndarray | None = None
        self._cov: np.ndarray | None = None
        self._basis: np.ndarray | None = None  # (m, r) normal basis
        self._axes: np.ndarray | None = None  # Pᵀ, C-contiguous (r, m)
        self._eigenvalues: np.ndarray | None = None  # descending, length m
        self._threshold: float = 0.0
        self._since_refresh = 0

    # ------------------------------------------------------------------
    def warm_up(self, measurements: np.ndarray) -> "IncrementalSubspaceTracker":
        """Initialize statistics from a historical block (batch moments)."""
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.ndim != 2 or measurements.shape[0] < 2:
            raise ModelError("warm-up needs a (t >= 2, m) matrix")
        require_finite_rows(measurements)
        m = measurements.shape[1]
        if self.normal_rank > m:
            raise ModelError(
                f"normal_rank {self.normal_rank} exceeds dimension {m}"
            )
        self._mean = measurements.mean(axis=0)
        centered = measurements - self._mean
        self._cov = (centered.T @ centered) / (measurements.shape[0] - 1)
        self._refresh()
        return self

    def warm_up_from_moments(
        self, mean: np.ndarray, covariance: np.ndarray
    ) -> "IncrementalSubspaceTracker":
        """Initialize from precomputed moments instead of raw history.

        Lets a batch-fitted model (e.g. ``V diag(λ) Vᵀ`` reconstructed
        from a PCA) seed the tracker without retaining the training
        window.
        """
        mean = np.asarray(mean, dtype=np.float64)
        covariance = np.asarray(covariance, dtype=np.float64)
        if mean.ndim != 1:
            raise ModelError(f"mean must be a vector, got shape {mean.shape}")
        m = mean.shape[0]
        if covariance.shape != (m, m):
            raise ModelError(
                f"covariance must be ({m}, {m}), got shape {covariance.shape}"
            )
        if self.normal_rank > m:
            raise ModelError(
                f"normal_rank {self.normal_rank} exceeds dimension {m}"
            )
        self._mean = mean.copy()
        # Symmetrize defensively; eigh assumes it and the exponential
        # update preserves it.
        self._cov = 0.5 * (covariance + covariance.T)
        self._refresh()
        return self

    def _refresh(self) -> None:
        """Eigendecompose the covariance into basis and Q-limit, and
        restart the refresh cadence."""
        eigenvalues, eigenvectors = covariance_spectrum(self._cov)
        self._eigenvalues = eigenvalues
        self._basis = eigenvectors[:, : self.normal_rank]
        self._axes = np.ascontiguousarray(self._basis.T)
        self._threshold = q_threshold(
            eigenvalues[self.normal_rank :], confidence=self.confidence
        )
        self._since_refresh = 0

    # ------------------------------------------------------------------
    def _require_ready(self) -> None:
        if self._mean is None:
            raise NotFittedError("warm_up must be called before streaming")

    @property
    def mean(self) -> np.ndarray:
        """Current running mean."""
        self._require_ready()
        return self._mean.copy()

    @property
    def normal_basis(self) -> np.ndarray:
        """Current normal-subspace basis ``P`` (``(m, r)``)."""
        self._require_ready()
        return self._basis.copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        """Current covariance eigenvalues, descending."""
        self._require_ready()
        return self._eigenvalues.copy()

    @property
    def threshold(self) -> float:
        """Current SPE limit ``δ²_α``."""
        self._require_ready()
        return self._threshold

    @property
    def since_refresh(self) -> int:
        """Arrivals folded since the last refresh point."""
        self._require_ready()
        return self._since_refresh

    def _refresh_due(self) -> bool:
        return (
            self.refresh_interval is not None
            and self._since_refresh >= self.refresh_interval
        )

    # ------------------------------------------------------------------
    def _as_row(self, measurement: np.ndarray) -> np.ndarray:
        self._require_ready()
        measurement = np.asarray(measurement, dtype=np.float64)
        if measurement.shape != self._mean.shape:
            raise ModelError(
                f"measurement has shape {measurement.shape}, expected "
                f"{self._mean.shape}"
            )
        return measurement

    def spe(self, measurement: np.ndarray) -> float:
        """SPE of one vector under the current model (no state update).

        A one-row :meth:`spe_block`: the same bits the row gets inside
        any block.
        """
        return float(self.spe_block(self._as_row(measurement)[None, :])[0])

    def update(self, measurement: np.ndarray) -> tuple[float, bool]:
        """Score one arrival, then fold it into the running statistics.

        Returns ``(spe, is_anomalous)`` under the pre-update model.  A
        non-finite arrival raises :class:`~repro.exceptions.ModelError`
        before it is scored, and the tracker is left unchanged.
        """
        measurement = self._as_row(measurement)
        require_finite_rows(measurement)
        spe = self.spe(measurement)
        is_anomalous = spe > self._threshold

        eta = self.forgetting
        self._mean = (1.0 - eta) * self._mean + eta * measurement
        deviation = measurement - self._mean
        self._cov = (1.0 - eta) * self._cov + eta * np.outer(deviation, deviation)

        self._since_refresh += 1
        if self._refresh_due():
            self._refresh()
        return spe, is_anomalous

    def spe_block(self, measurements: np.ndarray) -> np.ndarray:
        """SPE of a ``(t, m)`` block under the current model (no update).

        Runs the shared rank-``r`` kernel of
        :func:`~repro.core.subspace.score_block`
        (``ỹ = c − (c P) Pᵀ``), so every row's SPE is bit-identical
        alone, inside any block and at any chunking — a full normal
        subspace scores exactly 0.
        """
        return score_block(
            self._as_block(measurements), self._mean, basis=self._axes
        ).spe

    def _as_block(self, measurements: np.ndarray) -> np.ndarray:
        self._require_ready()
        measurements = ensure_matrix(
            measurements, name="block", error=ModelError,
            check_finite=False,
        )
        if measurements.shape[1] != self._mean.shape[0]:
            raise ModelError(
                f"block must be (t, {self._mean.shape[0]}), got shape "
                f"{measurements.shape}"
            )
        return measurements

    def update_block(
        self, measurements: np.ndarray, refresh: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score a window against the current model, then fold it in.

        Every row is scored against the model as of the start of the
        block — unlike the per-arrival loop, whose running mean drifts
        between samples; with windows much shorter than ``1/forgetting``
        the difference is negligible, and it is what lets the scoring
        itself vectorize.  The fold unrolls the exponential recursions
        in closed form, ``Σ_k = (1−η)^k Σ₀ + Dᵀ diag(η (1−η)^{k−j}) D``:
        one cumulative filter and one weighted Gram product instead of
        ``k`` rank-one updates, matching :meth:`update` to rounding.

        Parameters
        ----------
        measurements:
            ``(k, m)`` window of arrivals, oldest first.
        refresh:
            Refresh the eigendecomposition (and SPE limit) after folding
            the window (default).  With ``False``, refreshes keep their
            ``refresh_interval`` cadence in units of arrivals.

        Returns
        -------
        (spe, flags):
            Per-row SPE under the pre-window model and the boolean
            anomaly indicators ``spe > threshold``.

        Raises
        ------
        ModelError:
            When a row holds a non-finite value; nothing is scored or
            folded, and the refresh cadence does not move.
        """
        block = self._as_block(measurements)
        require_finite_rows(block)
        spe = self.spe_block(block)
        flags = spe > self._threshold
        self._fold(block, refresh)
        return spe, flags

    def _fold(self, measurements: np.ndarray, refresh: bool) -> None:
        if measurements.shape[0] == 0:
            # A zero-row window folds nothing, so it must not refresh:
            # the default path used to re-run the eigensolver on the
            # unchanged covariance and reset the refresh cadence, which
            # silently postponed the next scheduled refresh.
            return
        eta = self.forgetting
        decay = 1.0 - eta
        k_total = measurements.shape[0]
        # Chunk so the rescaled cumulative weights (1−η)^{−j} stay far
        # from overflow even for aggressive forgetting factors:
        # (1−η)^{−chunk} ≤ e^64 requires chunk ≤ 64 / −ln(1−η).
        chunk = max(1, int(-64.0 / np.log(decay)))
        for start in range(0, k_total, chunk):
            block = measurements[start : start + chunk]
            k = block.shape[0]
            # Exponents j = 1..k; growth[j−1] = (1−η)^{−j}.
            growth = decay ** -np.arange(1.0, k + 1.0)
            # μ_j for every j via a rescaled cumulative sum.
            weighted = np.cumsum(block * growth[:, None], axis=0)
            means = (self._mean + eta * weighted) / growth[:, None]
            deviations = block - means
            fold_weights = eta * decay ** np.arange(k - 1.0, -1.0, -1.0)
            self._cov = decay**k * self._cov + (
                deviations.T * fold_weights
            ) @ deviations
            self._mean = means[-1]
            self._since_refresh += k

        if refresh or self._refresh_due():
            self._refresh()

    def drift_from(self, reference_basis: np.ndarray) -> float:
        """Largest principal angle (radians) to a reference normal basis."""
        self._require_ready()
        angles = principal_angles(self._basis, reference_basis)
        return float(angles.max()) if angles.size else 0.0
