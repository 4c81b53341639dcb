"""Normal/anomalous subspace separation (§4.3).

The separation procedure examines the unit-norm projections
``u_i = Y v_i / ‖Y v_i‖`` in principal-axis order.  As soon as a
projection contains an entry deviating at least ``threshold_sigma``
standard deviations from that projection's mean, that axis *and all
subsequent axes* belong to the anomalous subspace ``S̃``; all preceding
axes form the normal subspace ``S``.

The resulting :class:`SubspaceModel` owns the projectors
``C = P Pᵀ`` (onto ``S``) and ``C̃ = I − C`` (onto ``S̃``) and performs the
decomposition ``y = ŷ + ỹ`` of §5.1.

Scoring never applies the ``m × m`` projector.  Every SPE route — the
model, the streaming tracker and the service engines — runs one rank-``r``
kernel, ``ỹ = c − (c P) Pᵀ`` with ``c = y − ȳ`` (:func:`score_block`),
at ``2·r·m`` multiply-adds per row instead of ``m²``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro._util import ensure_matrix
from repro.core.pca import PCA
from repro.core.suffstats import DEFAULT_TILE_ROWS, canonical_units
from repro.exceptions import ModelError

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "FLOAT32_BAND_FACTOR",
    "ScoreBlockResult",
    "ScoreMoments",
    "SeparationResult",
    "SubspaceModel",
    "float32_spe_band",
    "fold_moments",
    "score_block",
    "score_moments",
    "separate_axes",
    "separate_axes_from_moments",
    "tile_moments",
]

#: Rows processed per pass of the scoring kernel.  Large enough
#: that every interactive caller (one service row, a 36-bin streaming
#: window, a scenario block) lands in a single chunk, small enough that
#: the kernel's temporaries stay a few MB regardless of block size.
DEFAULT_CHUNK_ROWS = 8192

#: Safety factor of the float32 scoring error band (see
#: :func:`float32_spe_band`).
FLOAT32_BAND_FACTOR = 16.0


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of the 3-sigma axis separation.

    Attributes
    ----------
    normal_rank:
        Number of leading axes assigned to the normal subspace (the paper
        calls this ``r``; it finds 4 for its datasets).
    first_anomalous_axis:
        Index of the first axis that tripped the rule, or None when no
        axis tripped (then ``normal_rank == m`` and the anomalous subspace
        is empty — detection will flag nothing).
    max_deviations:
        Per-axis maximum |deviation from mean| in units of that axis's
        standard deviation.
    """

    normal_rank: int
    first_anomalous_axis: int | None
    max_deviations: np.ndarray


def separate_axes(
    pca: PCA,
    measurements: np.ndarray,
    threshold_sigma: float = 3.0,
    min_normal_rank: int = 1,
    max_normal_rank: int | None = None,
) -> SeparationResult:
    """Apply the paper's threshold separation to fitted PCA axes.

    The projections are never materialized: :func:`score_moments` runs
    once per canonical tile of ``measurements`` (``DEFAULT_TILE_ROWS``
    rows, the tiles of the gram fit's statistics), the tile moments are
    folded left to right, and :func:`separate_axes_from_moments`
    applies the rule.  Every fit route folds the same tiles in the same
    order, so the result is bit-identical across them.

    Parameters
    ----------
    pca:
        A fitted :class:`~repro.core.pca.PCA`.
    measurements:
        The data whose projections are examined (normally the training
        matrix itself).
    threshold_sigma:
        Deviation multiplier (the paper uses 3).
    min_normal_rank, max_normal_rank:
        Clamps on the resulting rank.  The paper's procedure has no
        explicit clamps; the defaults only prevent the degenerate
        ``r = 0`` case (an empty normal subspace turns SPE into plain
        traffic volume).  Set ``min_normal_rank=0`` for strict fidelity.
    """
    return separate_axes_from_moments(
        pca,
        tile_moments(pca, measurements),
        threshold_sigma=threshold_sigma,
        min_normal_rank=min_normal_rank,
        max_normal_rank=max_normal_rank,
    )


@dataclass(frozen=True)
class ScoreMoments:
    """Mergeable per-axis moments of the projection scores ``s = (Y−μ)V``.

    The four aggregates are everything the 3σ separation rule needs:
    sums add, extrema take elementwise min/max.  Every fit computes one
    :class:`ScoreMoments` per canonical unit (see
    :func:`~repro.core.suffstats.canonical_units`) and folds them with
    :func:`fold_moments` — no caller ever holds the whole score matrix.
    """

    count: int
    sums: np.ndarray  # Σ_t s_ti per axis
    squares: np.ndarray  # Σ_t s_ti² per axis
    minima: np.ndarray  # min_t s_ti per axis
    maxima: np.ndarray  # max_t s_ti per axis

    def merge(self, other: "ScoreMoments") -> "ScoreMoments":
        """Fold another chunk's moments into these (left-to-right)."""
        return ScoreMoments(
            count=self.count + other.count,
            sums=self.sums + other.sums,
            squares=self.squares + other.squares,
            minima=np.minimum(self.minima, other.minima),
            maxima=np.maximum(self.maxima, other.maxima),
        )


def _moments_identity(num_axes: int) -> ScoreMoments:
    """The merge-neutral element: folding it changes nothing."""
    return ScoreMoments(
        count=0,
        sums=np.zeros(num_axes),
        squares=np.zeros(num_axes),
        minima=np.full(num_axes, np.inf),
        maxima=np.full(num_axes, -np.inf),
    )


def fold_moments(
    parts: Iterable[ScoreMoments], num_axes: int
) -> ScoreMoments:
    """Fold per-unit moments from the identity, left to right.

    Floating-point addition is not associative: callers pass the units
    in ascending row order and never pre-merge a subset, so the folded
    bits depend only on the rows.
    """
    folded = _moments_identity(num_axes)
    for part in parts:
        folded = folded.merge(part)
    return folded


def tile_moments(pca: PCA, measurements: np.ndarray) -> ScoreMoments:
    """Score moments of ``measurements`` under ``pca``'s basis, one
    :func:`score_moments` call per canonical tile
    (:data:`~repro.core.suffstats.DEFAULT_TILE_ROWS` rows), folded in
    ascending row order."""
    measurements = ensure_matrix(
        measurements, name="measurements", error=ModelError,
        check_finite=False,
    )
    mean, components = pca.mean, pca.components
    return fold_moments(
        (
            score_moments(measurements[lo:hi], mean, components)
            for lo, hi in canonical_units(
                [(0, measurements.shape[0])], DEFAULT_TILE_ROWS
            )
        ),
        pca.num_components,
    )


def _fold_scores(scores: np.ndarray) -> ScoreMoments:
    """The four mergeable aggregates of one chunk's score matrix."""
    return ScoreMoments(
        count=scores.shape[0],
        sums=scores.sum(axis=0),
        squares=np.einsum("ij,ij->j", scores, scores),
        minima=scores.min(axis=0),
        maxima=scores.max(axis=0),
    )


def score_moments(
    measurements: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> ScoreMoments:
    """Per-axis score moments of one row chunk under a fitted basis.

    The chunk is read as one C-contiguous block, so equal rows give
    equal bits whatever array they were sliced from.
    """
    measurements = ensure_matrix(
        measurements, name="measurements", error=ModelError,
        check_finite=False,
    )
    if measurements.shape[1] != components.shape[0]:
        raise ModelError(
            f"measurements have {measurements.shape[1]} links, the basis "
            f"covers {components.shape[0]}"
        )
    return _fold_scores(
        (np.ascontiguousarray(measurements) - mean) @ components
    )


@dataclass(frozen=True)
class ScoreBlockResult:
    """Outcome of one :func:`score_block` pass.

    Attributes
    ----------
    spe:
        Squared prediction error per row, float64.
    flags:
        ``spe > threshold`` per row; ``None`` when no threshold was
        supplied.
    """

    spe: np.ndarray
    flags: np.ndarray | None


_SCORING_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _check_dtype(dtype: np.dtype | type) -> np.dtype:
    dtype = np.dtype(dtype)
    if dtype not in _SCORING_DTYPES:
        raise ModelError(
            f"scoring dtype must be float32 or float64, got {dtype}"
        )
    return dtype


def _residual_energy(centered: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """``‖c − (c P) Pᵀ‖²`` per row: the one residual kernel.

    ``axes`` is ``Pᵀ`` as C-contiguous ``(r, m)`` rows.  Each output
    element is one ``np.einsum`` reduction whose order depends only on
    ``r`` and ``m`` (the reconstruction adds its ``r`` terms in axis
    order), so a row's bits do not depend on the rows around it.
    """
    scores = np.einsum("...ij,...kj->...ik", centered, axes)
    residual = centered - np.einsum("...ik,...kj->...ij", scores, axes)
    return np.einsum("...ij,...ij->...i", residual, residual)


def score_block(
    measurements: np.ndarray,
    mean: np.ndarray,
    *,
    basis: np.ndarray,
    threshold: float | None = None,
    dtype: np.dtype | type = np.float64,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> ScoreBlockResult:
    """The scoring kernel: SPE and threshold flags in one chunked pass.

    Processes ``measurements`` in chunks of ``chunk_rows`` rows and, per
    chunk, computes the residual and its per-row energy (SPE) — so the
    largest temporary is ``(chunk_rows, m)`` no matter how many rows the
    block has.  With a memory-mapped block, each chunk is a view:
    nothing bigger than one chunk is ever resident.  The flags are
    ``SPE > threshold`` when a ``threshold`` is given.

    ``basis`` is ``Pᵀ``, the ``(r, m)`` normal axes as rows.  Per chunk,
    with ``c = y − ȳ``::

        s = c P            (einsum "ij,kj->ik" against Pᵀ)
        ỹ = c − s Pᵀ       (einsum "ik,kj->ij")
        SPE = ‖ỹ‖²         (einsum "ij,ij->i")

    — ``2·r·m`` multiply-adds per row where the projector ``C̃`` costs
    ``m²``.  Every row is an independent reduction, so the result is
    **bit-identical for any chunking** (single row, any ``chunk_rows``,
    or the whole block at once).  ``r = m`` scores exactly 0: a full
    normal subspace leaves no residual, and the numerical dust of
    ``c − c P Pᵀ`` would otherwise sit above the degenerate threshold
    ``δ²_α = 0`` and raise false alarms.

    ``dtype=np.float32`` runs the residual arithmetic in single
    precision: rows are centered in float64 first (so the large-number
    cancellation of ``y − ȳ`` never happens in float32), then cast, as
    is ``Pᵀ``.  SPE is returned as float64 either way; its float32-mode
    error is bounded by :func:`float32_spe_band`.
    """
    measurements = ensure_matrix(
        measurements, name="measurements", error=ModelError,
        check_finite=False,
    )
    mean = np.asarray(mean, dtype=np.float64)
    if chunk_rows < 1:
        raise ModelError(f"chunk_rows must be >= 1, got {chunk_rows}")
    dtype = _check_dtype(dtype)
    m = mean.shape[0]
    if measurements.shape[1] != m:
        raise ModelError(
            f"measurements have {measurements.shape[1]} links, the "
            f"model expects {m}"
        )
    # No copy for a C-contiguous basis of the scoring dtype; anything
    # else is laid out afresh, so the bits depend only on the values.
    axes = np.ascontiguousarray(basis, dtype=dtype)
    if axes.ndim != 2 or axes.shape[1] != m or axes.shape[0] > m:
        raise ModelError(
            f"basis must be (r, {m}) with r <= {m}, got shape "
            f"{axes.shape}"
        )
    full_rank = axes.shape[0] == m

    t = measurements.shape[0]
    spe = np.zeros(t)
    if not full_rank:
        for start in range(0, t, chunk_rows):
            centered = measurements[start : start + chunk_rows] - mean
            spe[start : start + centered.shape[0]] = _residual_energy(
                centered.astype(dtype, copy=False), axes
            )
    flags = None if threshold is None else spe > threshold
    return ScoreBlockResult(spe=spe, flags=flags)


def float32_spe_band(
    state_magnitude: np.ndarray | float, num_links: int
) -> np.ndarray | float:
    """Error band of float32-mode SPE around the float64 value.

    Rows are centered in float64, so the float32 error enters through
    the cast of the centered vector ``c`` (relative ``u32`` per
    coordinate), the cast of the axes ``Pᵀ``, and the three reductions
    of the rank-``r`` kernel: the scores ``s = c P`` (length ``m``, each
    off by ``O(m·u32)·‖c‖`` since the axes are unit vectors), the
    reconstruction ``s Pᵀ`` (length ``r ≤ m``, off by the same order —
    ``‖s‖ ≤ ‖c‖``), and the energy ``ỹ·ỹ`` (length ``m``).  The
    residual's absolute error therefore scales with the full centered
    magnitude, not with the possibly tiny SPE itself, and squaring
    gives ``O(m·u32)`` *relative to the centered energy*
    ``‖y − ȳ‖²``.  Below float32's subnormal range the relative model
    breaks — values under ``2⁻¹⁴⁹`` flush to zero outright — so an
    absolute underflow term joins: every cast, product, and square can
    mis-round by at most ``tiny = 2⁻¹⁴⁹``, and the cross terms of the
    dot product scale those flushes by the residual coordinates, which
    ``‖y − ȳ‖`` bounds.  Stacked and rounded up by
    :data:`FLOAT32_BAND_FACTOR`:

        |SPE₃₂ − SPE₆₄| ≤ FACTOR · (m + 2) · u32 · ‖y − ȳ‖²
                        + FACTOR · (m + 2)² · tiny · (1 + ‖y − ȳ‖)

    with ``u32 = 2⁻²³``.  For real traffic (byte counts, ``‖y − ȳ‖²``
    at 1e6 and up) the underflow term is ~1e-40 — invisible; it exists
    so the bound is *unconditional*.  The hypothesis suite pins the
    bound on random models; the scenario suite pins the consequence:
    float32 and float64 alarm decisions agree on every bin whose
    float64 SPE sits farther than this band from the threshold.
    """
    u32 = float(np.finfo(np.float32).eps)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    magnitude = np.asarray(state_magnitude, dtype=np.float64)
    band = FLOAT32_BAND_FACTOR * (num_links + 2) * u32 * magnitude
    band = band + (
        FLOAT32_BAND_FACTOR
        * (num_links + 2) ** 2
        * tiny
        * (1.0 + np.sqrt(magnitude))
    )
    return float(band) if band.ndim == 0 else band


def separate_axes_from_moments(
    pca: PCA,
    moments: ScoreMoments,
    threshold_sigma: float = 3.0,
    min_normal_rank: int = 1,
    max_normal_rank: int | None = None,
) -> SeparationResult:
    """The 3σ separation rule evaluated from folded score moments.

    With ``u = s/‖s‖`` the rule needs only ``ū``, the standard
    deviation ``√(E[u²] − ū²)`` (with ``E[u²] = 1/t`` exactly) and the
    peak ``max(max u − ū, ū − min u)`` — all functions of the four
    mergeable aggregates.  This is the only place the rule is
    evaluated; equal moments give equal bits on every fit route.
    Zero-variance and zero-spread axes never trip the rule and score 0.
    """
    if threshold_sigma <= 0:
        raise ModelError(f"threshold_sigma must be positive, got {threshold_sigma}")
    m = pca.num_components
    if max_normal_rank is None:
        max_normal_rank = m
    if not 0 <= min_normal_rank <= max_normal_rank <= m:
        raise ModelError(
            f"invalid rank clamps: 0 <= {min_normal_rank} <= "
            f"{max_normal_rank} <= {m} violated"
        )
    if moments.sums.shape != (m,):
        raise ModelError(
            f"moments cover {moments.sums.shape[0]} axes, model has {m}"
        )

    t = moments.count
    if t < 1:
        raise ModelError("the 3σ separation needs at least one row")
    captured = pca.captured_variance()
    norms = np.sqrt(moments.squares)
    live = (captured > 0) & (norms > 0)
    safe_norms = np.where(live, norms, 1.0)
    u_mean = moments.sums / (t * safe_norms)
    # E[u²] = Σs²/(t·‖s‖²) = 1/t exactly for live axes.
    stds = np.sqrt(np.maximum(1.0 / t - u_mean**2, 0.0))
    live &= stds > 0
    peaks = np.maximum(
        moments.maxima / safe_norms - u_mean,
        u_mean - moments.minima / safe_norms,
    )
    deviations = np.where(
        live, peaks / np.where(stds > 0, stds, 1.0), 0.0
    )
    tripped = np.nonzero(deviations >= threshold_sigma)[0]
    first_anomalous: int | None = int(tripped[0]) if tripped.size else None
    rank = m if first_anomalous is None else first_anomalous
    return SeparationResult(
        normal_rank=int(np.clip(rank, min_normal_rank, max_normal_rank)),
        first_anomalous_axis=first_anomalous,
        max_deviations=deviations,
    )


class SubspaceModel:
    """Projectors onto the normal and anomalous subspaces (§5.1).

    Build with an explicitly chosen normal rank; a fitted
    :class:`~repro.core.detection.SPEDetector` holds the model its
    separation rule chose.
    """

    def __init__(self, pca: PCA, normal_rank: int) -> None:
        m = pca.num_components
        if not 0 <= normal_rank <= m:
            raise ModelError(
                f"normal rank {normal_rank} out of range [0, {m}]"
            )
        self.pca = pca
        self.normal_rank = normal_rank
        #: The 3σ separation that chose ``normal_rank``; None when the
        #: rank was set explicitly.  Assigned only by
        #: :meth:`~repro.core.detection.SPEDetector.fit_from_moments`.
        self.separation: SeparationResult | None = None
        #: Precision the scoring kernel runs in (the *fit* is always
        #: float64); inherited from the PCA's ``dtype`` knob.
        self.dtype = np.dtype(getattr(pca, "dtype", np.float64))
        self._mean = pca.mean  # cached: the property returns a copy
        components = pca.components
        self._p = components[:, :normal_rank]  # (m, r)
        # Pᵀ as C-contiguous rows, built once: the scoring kernel's
        # operand on every call, never re-laid-out per row.
        self._axes = np.ascontiguousarray(self._p.T)
        if normal_rank == m:
            # A full normal subspace leaves no residual: the projectors
            # are exactly I and 0, not the numerical dust of P Pᵀ for an
            # (orthonormal) full basis — the rule the scoring kernel
            # applies to SPE, here for residuals and identification.
            self._c = np.eye(m)
            self._c_tilde = np.zeros((m, m))
        else:
            self._c = self._p @ self._p.T
            self._c_tilde = np.eye(m) - self._c

    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Dimensionality ``m`` of measurement space."""
        return self._c.shape[0]

    @property
    def normal_basis(self) -> np.ndarray:
        """``P``: the ``(m, r)`` matrix of normal-subspace axes."""
        return self._p.copy()

    @property
    def normal_projector(self) -> np.ndarray:
        """``C = P Pᵀ`` (projects onto the normal subspace ``S``)."""
        return self._c.copy()

    @property
    def anomalous_projector(self) -> np.ndarray:
        """``C̃ = I − P Pᵀ`` (projects onto the anomalous subspace ``S̃``)."""
        return self._c_tilde.copy()

    def residual_eigenvalues(self) -> np.ndarray:
        """Covariance eigenvalues of the discarded axes (feeds the Q-statistic)."""
        return self.pca.eigenvalues()[self.normal_rank :]

    # ------------------------------------------------------------------
    def _center(self, measurements: np.ndarray) -> np.ndarray:
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.shape[-1] != self.num_links:
            raise ModelError(
                f"measurements have {measurements.shape[-1]} links, model "
                f"expects {self.num_links}"
            )
        return measurements - self._mean

    def decompose(self, measurements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split (centered) measurements into ``(ŷ, ỹ)`` — modeled + residual.

        Accepts one vector ``y`` or a ``(t, m)`` matrix.  The two parts sum
        to the *centered* measurements: ``ŷ + ỹ = y − ȳ``.
        """
        centered = self._center(measurements)
        modeled = centered @ self._c.T
        residual = centered - modeled
        return modeled, residual

    def residual(self, measurements: np.ndarray) -> np.ndarray:
        """``ỹ = C̃ (y − ȳ)`` for one vector or a matrix of measurements."""
        centered = self._center(measurements)
        return centered @ self._c_tilde.T

    def spe(self, measurements: np.ndarray) -> np.ndarray | float:
        """Squared prediction error ``SPE = ‖ỹ‖²`` (§5.1).

        Returns a scalar for a single vector, an array for a matrix.

        Computed by the rank-``r`` :func:`score_block` kernel,
        ``ỹ = c − (c P) Pᵀ`` — the same residual ``C̃ (y − ȳ)`` as
        :meth:`residual`, without the ``m × m`` projector.

        **Row-decomposable by contract.**  The kernel is pinned to
        ``np.einsum`` (not BLAS matmul) because einsum computes each
        output element by an independent reduction: the SPE of row
        ``i`` is bit-identical whether the row is scored alone, in any
        chunking, or inside the full block.  BLAS GEMM does not
        guarantee this — its blocking changes summation order with the
        operand shape — and the always-on service relies on the
        guarantee to keep per-row ingest alarms exactly equal to a batch
        :meth:`~repro.pipeline.pipeline.DetectionPipeline.detect` over
        the assembled matrix (pinned by the scoring-invariance property
        tests).  The same contract is what lets the
        :func:`score_block` kernel process arbitrary row chunks (an
        out-of-core block never materializes) without moving a bit.
        """
        measurements = np.asarray(measurements, dtype=np.float64)
        single = measurements.ndim == 1
        spe = self.score_block(
            measurements[None, :] if single else measurements
        ).spe
        return float(spe[0]) if single else spe

    def score_block(
        self,
        measurements: np.ndarray,
        threshold: float | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> ScoreBlockResult:
        """SPE and threshold flags under this model, one chunked pass.

        One call to the :func:`score_block` kernel with this model's
        axes ``Pᵀ`` (and scoring dtype): SPE for every row and alarm
        flags when a ``threshold`` is given, with no full-block
        temporary.  Bit-identical to :meth:`spe` + elementwise
        comparison.
        """
        return score_block(
            measurements,
            self._mean,
            basis=self._axes,
            threshold=threshold,
            dtype=self.dtype,
            chunk_rows=chunk_rows,
        )

    def state_magnitude(self, measurements: np.ndarray) -> np.ndarray | float:
        """``‖y − ȳ‖²`` — the state-vector magnitude of paper Fig. 5 (top)."""
        centered = self._center(measurements)
        if centered.ndim == 1:
            return float(centered @ centered)
        return np.einsum("ij,ij->i", centered, centered)
