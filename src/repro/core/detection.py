"""Volume-anomaly detection (§5.1).

:class:`SPEDetector` packages the full detection pipeline: fit a PCA on
the training measurements, separate the subspaces with the 3-sigma rule,
compute the Q-statistic threshold, and flag any timestep whose squared
prediction error exceeds it.  Every fit route — a matrix
(:meth:`SPEDetector.fit`), accumulated statistics with their tiles
(:meth:`SPEDetector.fit_from_stats`, the service's fit) and the sharded
coordinator — ends in :meth:`SPEDetector.fit_from_moments`.

An important property the paper emphasizes: the test never references the
mean traffic level, so the same detector configuration applies to networks
of any size and utilization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.pca import PCA
from repro.core.qstatistic import q_threshold
from repro.core.subspace import (
    ScoreMoments,
    SubspaceModel,
    fold_moments,
    score_moments,
    separate_axes_from_moments,
    tile_moments,
)
from repro.core.suffstats import (
    DEFAULT_TILE_ROWS,
    SufficientStats,
    canonical_units,
)
from repro.exceptions import ModelError, NotFittedError

__all__ = ["SPEDetector", "DetectionResult"]


@dataclass(frozen=True)
class DetectionResult:
    """Detection output for a block of measurements.

    Attributes
    ----------
    spe:
        Squared prediction error ``‖ỹ‖²`` per timestep.
    threshold:
        The Q-statistic limit ``δ²_α`` used.
    flags:
        Boolean per-timestep anomaly indicators (``spe > threshold``).
    confidence:
        The confidence level the threshold corresponds to.
    """

    spe: np.ndarray
    threshold: float
    flags: np.ndarray
    confidence: float

    @property
    def anomalous_bins(self) -> np.ndarray:
        """Indices of flagged timesteps."""
        return np.nonzero(self.flags)[0]

    @property
    def num_alarms(self) -> int:
        """Number of flagged timesteps."""
        return int(np.count_nonzero(self.flags))

    def alarm_rate(self) -> float:
        """Fraction of timesteps flagged."""
        if self.flags.size == 0:
            return 0.0
        return self.num_alarms / self.flags.size


def _check_tiles(tiles: Sequence[np.ndarray], stats: SufficientStats) -> None:
    """Raise :class:`ModelError` unless ``tiles`` are the canonical units
    of the statistics' rows from row 0, at the statistics' width."""
    count, width = stats.count, stats.num_columns
    units = [
        hi - lo for lo, hi in canonical_units([(0, count)], DEFAULT_TILE_ROWS)
    ]
    for index, tile in enumerate(tiles):
        shape = np.shape(tile)
        if shape[1:] != (width,):
            raise ModelError(
                f"tile {index} has shape {shape}, the statistics cover "
                f"{width} links"
            )
        if index >= len(units) or shape[0] != units[index]:
            raise ModelError(
                f"tile {index} has {shape[0]} rows; the statistics' {count} "
                f"rows make {len(units)} tiles of {DEFAULT_TILE_ROWS} rows, "
                "the last one what is left"
            )
    if len(tiles) < len(units):
        raise ModelError(
            f"{len(tiles)} tiles cover fewer rows than the statistics' "
            f"{count}; the 3σ separation scores every row (or set an "
            "explicit normal_rank)"
        )


class SPEDetector:
    """Subspace detector: PCA + separation + Q-statistic threshold.

    Parameters
    ----------
    confidence:
        ``1 − α`` for the Q-statistic limit (paper uses 0.995 / 0.999).
    threshold_sigma:
        Deviation multiplier of the axis-separation rule (paper uses 3).
    normal_rank:
        Explicit normal-subspace rank; None (default) applies the
        separation rule.
    min_normal_rank, max_normal_rank:
        Clamps forwarded to the separation rule.
    svd_method:
        Eigensolver route forwarded to :class:`~repro.core.pca.PCA`
        (``"auto"`` picks the economy path for the matrix shape).
    dtype:
        Scoring precision (``"float64"`` default, or ``"float32"``),
        forwarded to :class:`~repro.core.pca.PCA`.  The fit — and with
        it the separation rank and the Q-statistic threshold — always
        runs in float64; float32 only changes the per-row projection
        arithmetic, with SPE error bounded by
        :func:`~repro.core.subspace.float32_spe_band`.

    Examples
    --------
    >>> from repro.datasets import build_dataset
    >>> ds = build_dataset("abilene")
    >>> detector = SPEDetector().fit(ds.link_traffic)
    >>> result = detector.detect(ds.link_traffic)
    >>> bool(result.num_alarms < ds.num_bins * 0.05)
    True
    """

    def __init__(
        self,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        min_normal_rank: int = 1,
        max_normal_rank: int | None = None,
        svd_method: str = "auto",
        dtype: np.dtype | type | str = np.float64,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ModelError(f"confidence must lie in (0, 1), got {confidence}")
        self.confidence = confidence
        self.threshold_sigma = threshold_sigma
        self.requested_rank = normal_rank
        self.min_normal_rank = min_normal_rank
        self.max_normal_rank = max_normal_rank
        self.svd_method = svd_method
        self.dtype = np.dtype(dtype)
        self._model: SubspaceModel | None = None
        self._threshold: float | None = None

    # ------------------------------------------------------------------
    def fit(self, measurements: np.ndarray) -> "SPEDetector":
        """Fit PCA, separate subspaces, and compute the SPE limit."""
        pca = PCA(method=self.svd_method, dtype=self.dtype).fit(measurements)
        moments = None
        if self.requested_rank is None:
            moments = tile_moments(pca, measurements)
        return self.fit_from_moments(pca, moments)

    def fit_from_stats(
        self, stats: SufficientStats, tiles: Sequence[np.ndarray] = ()
    ) -> "SPEDetector":
        """Fit from *already accumulated* sufficient statistics.

        This is the fit of the always-on service (:mod:`repro.service`):
        its tile-packed history computes each tile's statistics once, as
        the tile fills, and a
        :class:`~repro.core.suffstats.HistorySnapshot` hands over the
        statistics and their rows together.  ``tiles`` are those rows,
        from row 0, in canonical units: one
        :data:`~repro.core.suffstats.DEFAULT_TILE_ROWS`-row block per
        whole tile, then the rows of the open tile.  Only the 3σ
        separation rule (no explicit rank) reads them, one
        :func:`~repro.core.subspace.score_moments` call per tile in
        order; with an explicit rank the fit is a pure function of
        ``stats``.  The PCA is always the gram fit, whatever
        ``svd_method`` says, so the result is bit-identical to
        ``SPEDetector(svd_method="gram").fit`` on the same rows.
        """
        if not isinstance(stats, SufficientStats):
            raise ModelError(
                f"stats must be SufficientStats, got {type(stats).__name__}"
            )
        if stats.tile_rows != DEFAULT_TILE_ROWS:
            raise ModelError(
                f"tile_rows mismatch: statistics use {stats.tile_rows}, "
                f"every fit folds {DEFAULT_TILE_ROWS}"
            )
        pca = PCA(method="gram", dtype=self.dtype).fit_from_stats(stats)
        moments = None
        if self.requested_rank is None:
            _check_tiles(tiles, stats)
            mean, components = pca.mean, pca.components
            moments = fold_moments(
                (score_moments(tile, mean, components) for tile in tiles),
                pca.num_components,
            )
        return self.fit_from_moments(pca, moments)

    def fit_from_moments(
        self, pca: PCA, moments: ScoreMoments | None
    ) -> "SPEDetector":
        """Finish a fit: separate ``pca``'s axes, build the model, and
        compute the SPE limit.

        ``moments`` are the training rows' score moments, one per
        canonical tile folded in ascending tile order; they are ``None``
        exactly when an explicit rank is set.  The detector keeps the
        *requested* rank (None when the separation rule chose it), so a
        detector refitted from this one's parameters re-runs the rule
        rather than pinning the computed rank.
        """
        if (moments is None) != (self.requested_rank is not None):
            raise ModelError(
                "score moments are needed exactly when no explicit "
                "normal rank is set"
            )
        separation = None
        rank = self.requested_rank
        if moments is not None:
            separation = separate_axes_from_moments(
                pca,
                moments,
                threshold_sigma=self.threshold_sigma,
                min_normal_rank=self.min_normal_rank,
                max_normal_rank=self.max_normal_rank,
            )
            rank = separation.normal_rank
        model = SubspaceModel(pca, rank)
        model.separation = separation
        self._model = model
        self._threshold = q_threshold(
            model.residual_eigenvalues(), confidence=self.confidence
        )
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> SubspaceModel:
        if self._model is None or self._threshold is None:
            raise NotFittedError("SPEDetector.fit must be called first")
        return self._model

    @property
    def model(self) -> SubspaceModel:
        """The fitted subspace model."""
        return self._require_fitted()

    @property
    def threshold(self) -> float:
        """The fitted Q-statistic limit ``δ²_α``."""
        self._require_fitted()
        return self._threshold

    @property
    def normal_rank(self) -> int:
        """The fitted normal-subspace rank ``r``."""
        return self._require_fitted().normal_rank

    def threshold_at(self, confidence: float) -> float:
        """The SPE limit at another confidence level (same subspaces)."""
        model = self._require_fitted()
        return q_threshold(model.residual_eigenvalues(), confidence=confidence)

    # ------------------------------------------------------------------
    def spe(self, measurements: np.ndarray) -> np.ndarray | float:
        """SPE of one measurement vector or a matrix of them."""
        return self._require_fitted().spe(measurements)

    def detect(
        self,
        measurements: np.ndarray,
        confidence: float | None = None,
    ) -> DetectionResult:
        """Flag anomalous timesteps in a ``(t, m)`` measurement block.

        ``confidence`` overrides the fitted level without refitting.
        """
        model = self._require_fitted()
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.ndim == 1:
            measurements = measurements[None, :]
        if confidence is None:
            threshold = self._threshold
            level = self.confidence
        else:
            threshold = self.threshold_at(confidence)
            level = confidence
        # One fused kernel pass: SPE and the threshold comparison come
        # out of the same chunked sweep (no full-block residual
        # temporary), bit-identical to model.spe + elementwise compare.
        scored = model.score_block(measurements, threshold=float(threshold))
        return DetectionResult(
            spe=scored.spe,
            threshold=float(threshold),
            flags=scored.flags,
            confidence=level,
        )
