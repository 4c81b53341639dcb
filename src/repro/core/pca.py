"""Principal Component Analysis of the link measurement matrix (§4.2).

The paper treats each row of the ``(t, m)`` measurement matrix ``Y`` as a
point in ``R^m``, centers the columns, and extracts principal axes
``v_1, ..., v_m`` ordered by captured variance.  The normalized
projections ``u_i = Y v_i / ‖Y v_i‖`` are the common temporal patterns of
the link ensemble (paper Fig. 4).

Implementation: the decomposition only ever needs the *right* singular
basis and the singular values, so :meth:`PCA.fit` picks the cheapest
economy route for the matrix shape (``method="auto"``):

``gram-covariance``
    ``t ≫ m`` (the paper's regime: a week of bins over tens of links).
    Eigendecomposition of the ``(m, m)`` Gram matrix ``YᵀY`` — one BLAS-3
    ``syrk`` plus an ``m × m`` symmetric eigensolve, so the cost scales
    with ``min(t, m)`` instead of ``max(t, m)``.  This route is computed
    through the mergeable sufficient statistics of
    :mod:`repro.core.suffstats` (canonical row tiles, uncentered moments
    with a rank-one centering correction), so :meth:`PCA.fit_from_stats`
    on merged per-chunk statistics is *bit-identical* to the monolithic
    fit — the exactness contract the sharded engine
    (:mod:`repro.pipeline.sharded`) is built on.
``gram-sample``
    ``m ≫ t``.  Eigendecomposition of the ``(t, t)`` Gram ``YYᵀ``; the
    right singular vectors are recovered as ``Yᵀu_i/σ_i`` and the basis
    is completed deterministically for the null directions.
``svd``
    Balanced shapes.  Thin SVD (``full_matrices=False``) of the centered
    matrix — never materializes the ``(t, t)`` left basis the detection
    pipeline immediately discards.

``method="svd-full"`` keeps the pre-economy reference path
(``full_matrices=True``) for equivalence tests and benchmarks.

Sign convention: each component's largest-magnitude coordinate is made
positive, so results are deterministic across solver routes and SVD
backends.
"""

from __future__ import annotations

import numpy as np

from repro._util import ensure_matrix
from repro.core.suffstats import FinalizedStats, SufficientStats
from repro.exceptions import ModelError, NotFittedError

__all__ = ["PCA"]

#: ``method="auto"`` switches from thin SVD to a Gram eigensolve once the
#: long side is at least this many times the short side.  The crossover
#: is flat in practice — ``syrk`` + ``eigh`` already wins slightly at 2:1
#: and wins by an order of magnitude at the paper's ~20:1 aspect.
_GRAM_ASPECT_RATIO = 4

_METHODS = ("auto", "svd", "gram", "svd-full")


def _deterministic_signs(components: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-|coordinate| entry is positive.

    One vectorized ``argmax``/fancy-index pass over all columns; negation
    is exact in IEEE-754, so the result is bit-identical to flipping the
    columns one at a time (the regression suite pins this).
    """
    if components.size == 0:
        return components
    pivots = np.argmax(np.abs(components), axis=0)
    columns = np.arange(components.shape[1])
    flip = components[pivots, columns] < 0
    components[:, flip] = -components[:, flip]
    return components


def _complete_basis(partial: np.ndarray) -> np.ndarray:
    """Extend ``(m, k)`` orthonormal columns to a full ``(m, m)`` basis.

    The added columns span the orthogonal complement (the zero-variance
    directions of a short-and-wide matrix); they are computed with a
    deterministic complete QR, so repeated fits agree bit for bit.
    """
    m, k = partial.shape
    if k >= m:
        return partial
    q, _ = np.linalg.qr(partial, mode="complete")
    tail = _deterministic_signs(np.ascontiguousarray(q[:, k:]))
    return np.concatenate([partial, tail], axis=1)


class PCA:
    """PCA of a timeseries matrix with the paper's conventions.

    The columns are always centered (per-column means subtracted)
    before decomposing, as the paper does.

    Parameters
    ----------
    method:
        Eigensolver route: ``"auto"`` (default) picks by aspect ratio,
        ``"svd"`` forces the thin SVD, ``"gram"`` forces the Gram
        eigensolve on the cheaper side, and ``"svd-full"`` keeps the
        legacy ``full_matrices=True`` reference path.
    dtype:
        Precision of the downstream *scoring* kernel (``"float64"``
        default, or ``"float32"``).  The fit itself always runs in
        float64 — mean, components, eigenvalues, and hence the
        separation rank and Q-statistic threshold are bit-identical
        across modes — the knob only tells
        :class:`~repro.core.subspace.SubspaceModel` which precision to
        project rows in, with error bounded by
        :func:`~repro.core.subspace.float32_spe_band`.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> y = rng.normal(size=(100, 5)) @ np.diag([5, 1, 1, 1, 1])
    >>> pca = PCA().fit(y)
    >>> bool(pca.variance_fractions()[0] > 0.5)
    True
    """

    def __init__(
        self,
        method: str = "auto",
        dtype: np.dtype | type | str = np.float64,
    ) -> None:
        if method not in _METHODS:
            raise ModelError(
                f"unknown PCA method {method!r}; choose from {_METHODS}"
            )
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ModelError(
                f"scoring dtype must be float32 or float64, got {dtype}"
            )
        self.method = method
        self.dtype = dtype
        self._mean: np.ndarray | None = None
        self._components: np.ndarray | None = None  # (m, m): columns are v_i
        self._singular_values: np.ndarray | None = None
        self._num_samples: int = 0
        self._solver: str | None = None

    # ------------------------------------------------------------------
    def fit(self, measurements: np.ndarray) -> "PCA":
        """Decompose a ``(t, m)`` measurement matrix.

        Requires ``t >= 2`` (variance needs at least two samples).
        """
        measurements = ensure_matrix(
            measurements, name="measurement matrix", error=ModelError
        )
        t, m = measurements.shape
        if t < 2:
            raise ModelError(f"need at least 2 time samples, got {t}")
        if m < 1:
            raise ModelError("measurement matrix has no columns")

        solver = self.method
        if solver == "auto":
            if t >= _GRAM_ASPECT_RATIO * m or m >= _GRAM_ASPECT_RATIO * t:
                solver = "gram"
            else:
                solver = "svd"
        if solver == "gram" and t >= m:
            # The tall gram-covariance route *is* the sufficient-stats
            # fit on one chunk — by construction, so that a fit from
            # merged per-shard statistics reproduces this one bit for
            # bit (see repro.core.suffstats).  Finiteness was checked
            # above; skip the second full-matrix scan.
            return self._fit_finalized(
                SufficientStats.from_block(
                    measurements, validate=False
                ).finalize()
            )

        self._num_samples = t
        self._mean = measurements.mean(axis=0)
        centered = measurements - self._mean

        if solver == "gram":
            components, singular_values, self._solver = _fit_gram_sample(
                centered
            )
        elif solver == "svd":
            components, singular_values, self._solver = _fit_svd(
                centered, full_matrices=False
            )
        else:  # svd-full: the legacy reference route
            components, singular_values, self._solver = _fit_svd(
                centered, full_matrices=True
            )

        # The decomposition only determines min(t, m) directions; pad with
        # exact zeros for the degenerate directions of a short-and-wide
        # matrix and complete the basis deterministically.
        if singular_values.size < m:
            padded = np.zeros(m)
            padded[: singular_values.size] = singular_values
            singular_values = padded
        components = _complete_basis(components)
        # Deterministic sign: largest-|coordinate| entry of each v_i > 0.
        self._components = _deterministic_signs(components)
        self._singular_values = singular_values
        return self

    # ------------------------------------------------------------------
    def fit_from_stats(
        self, stats: SufficientStats | FinalizedStats
    ) -> "PCA":
        """Fit from mergeable sufficient statistics instead of raw rows.

        ``stats`` may be a (merged) :class:`~repro.core.suffstats.
        SufficientStats` or an already-finalized reduction.  The fit
        always takes the gram-covariance route — the only one expressible
        in ``(t, S, G)`` — and is bit-identical to
        ``PCA(method="gram").fit(Y)`` whenever ``t >= m``, for *any*
        chunking of ``Y`` into per-shard statistics (the sharded
        engine's exactness contract; pinned by the property suite).
        """
        if self.method not in ("auto", "gram"):
            raise ModelError(
                f"method {self.method!r} cannot fit from sufficient "
                "statistics; use method='auto' or 'gram'"
            )
        if isinstance(stats, SufficientStats):
            stats = stats.finalize()
        if not isinstance(stats, FinalizedStats):
            raise ModelError(
                "fit_from_stats expects SufficientStats or FinalizedStats, "
                f"got {type(stats).__name__}"
            )
        return self._fit_finalized(stats)

    def _fit_finalized(self, stats: FinalizedStats) -> "PCA":
        """The gram-covariance eigensolve over finalized statistics."""
        t = stats.count
        if t < 2:
            raise ModelError(f"need at least 2 time samples, got {t}")
        self._num_samples = t
        self._mean = stats.mean
        eigenvalues, eigenvectors = np.linalg.eigh(stats.centered_gram())
        order = np.argsort(eigenvalues)[::-1]
        self._singular_values = np.sqrt(
            np.clip(eigenvalues[order], 0.0, None)
        )
        self._components = _deterministic_signs(eigenvectors[:, order])
        self._solver = "gram-covariance"
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self._components is None:
            raise NotFittedError("PCA.fit must be called first")

    @property
    def solver(self) -> str:
        """The eigensolver route the last fit actually took.

        One of ``"svd"``, ``"svd-full"``, ``"gram-covariance"`` (``(m, m)``
        Gram) or ``"gram-sample"`` (``(t, t)`` Gram).
        """
        self._require_fitted()
        return self._solver

    @property
    def num_components(self) -> int:
        """Dimensionality ``m`` of the measurement space."""
        self._require_fitted()
        return self._components.shape[1]

    @property
    def num_samples(self) -> int:
        """Number of time samples the decomposition was fitted on."""
        self._require_fitted()
        return self._num_samples

    @property
    def mean(self) -> np.ndarray:
        """Per-column training mean."""
        self._require_fitted()
        return self._mean.copy()

    @property
    def components(self) -> np.ndarray:
        """``(m, m)`` orthonormal matrix; column ``i`` is the axis ``v_i``."""
        self._require_fitted()
        return self._components.copy()

    def component(self, index: int) -> np.ndarray:
        """Principal axis ``v_index`` (0-based)."""
        self._require_fitted()
        if not 0 <= index < self.num_components:
            raise ModelError(
                f"component index {index} out of range [0, {self.num_components})"
            )
        return self._components[:, index].copy()

    # ------------------------------------------------------------------
    def captured_variance(self) -> np.ndarray:
        """Raw captured "variance" per axis: ``‖Y v_i‖²`` (paper notation)."""
        self._require_fitted()
        return self._singular_values**2

    def eigenvalues(self) -> np.ndarray:
        """Sample-covariance eigenvalues ``λ_i = ‖Y v_i‖² / (t − 1)``.

        These are the values the Q-statistic consumes (DESIGN.md §5).
        """
        self._require_fitted()
        return self._singular_values**2 / (self._num_samples - 1)

    def variance_fractions(self) -> np.ndarray:
        """Fraction of total variance captured by each axis (paper Fig. 3)."""
        variances = self.captured_variance()
        total = variances.sum()
        if total == 0:
            return np.zeros_like(variances)
        return variances / total

    def effective_dimension(self, fraction: float = 0.95) -> int:
        """Smallest number of axes capturing ``fraction`` of total variance."""
        if not 0.0 < fraction <= 1.0:
            raise ModelError(f"fraction must lie in (0, 1], got {fraction}")
        cumulative = np.cumsum(self.variance_fractions())
        return int(np.searchsorted(cumulative, fraction - 1e-12) + 1)

    # ------------------------------------------------------------------
    def transform(self, measurements: np.ndarray) -> np.ndarray:
        """Map measurements onto the principal axes (scores ``Y v_i``)."""
        self._require_fitted()
        measurements = np.asarray(measurements, dtype=np.float64)
        width = measurements.shape[-1] if measurements.ndim else 0
        if width != self._mean.shape[0]:
            raise ModelError(
                f"measurements have {width} links, the model covers "
                f"{self._mean.shape[0]}"
            )
        centered = measurements - self._mean
        return centered @ self._components

    def projection_timeseries(self, measurements: np.ndarray, index: int) -> np.ndarray:
        """The unit-norm temporal pattern ``u_i = Y v_i / ‖Y v_i‖`` (§4.3).

        Evaluated on arbitrary measurements (typically the training data);
        a zero-variance axis has no direction and raises.
        """
        scores = self.transform(measurements)[:, index]
        norm = np.linalg.norm(scores)
        if norm == 0:
            raise ModelError(f"axis {index} captures no variance in this data")
        return scores / norm

    def inverse_transform(self, scores: np.ndarray) -> np.ndarray:
        """Map principal-axis scores back to measurement space."""
        self._require_fitted()
        scores = np.asarray(scores, dtype=np.float64)
        return scores @ self._components.T + self._mean


# ----------------------------------------------------------------------
# Solver routes.  Each returns (components, singular_values, solver_tag)
# with components ``(m, k)`` orthonormal (k = number of determined
# directions) and singular values descending.


def _fit_svd(
    centered: np.ndarray, full_matrices: bool
) -> tuple[np.ndarray, np.ndarray, str]:
    """Thin (or legacy full) SVD of the centered matrix."""
    _, singular_values, vt = np.linalg.svd(
        centered, full_matrices=full_matrices
    )
    return vt.T, singular_values, "svd-full" if full_matrices else "svd"


def _fit_gram_sample(
    centered: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Symmetric eigensolve of the ``(t, t)`` sample Gram (``t < m``).

    Eigendecompose ``YYᵀ`` and recover the axes as ``Yᵀ u_i / σ_i``
    (directions with σ ≈ 0 are indeterminate and left to deterministic
    basis completion).  The ``t >= m`` Gram route lives on the
    sufficient-statistics path (:meth:`PCA._fit_finalized`).
    """
    t, m = centered.shape
    gram = centered @ centered.T  # (t, t)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1]
    singular_values = np.sqrt(np.clip(eigenvalues[order], 0.0, None))
    left = eigenvectors[:, order]
    # Recover right singular vectors where σ is numerically nonzero.
    # The spectrum was squared through the Gram matrix, so eigenvalue
    # rounding dust of order λ₀·t·eps surfaces as σ ≈ σ₀·√(t·eps) — the
    # cutoff must live on that scale, not the σ₀·t·eps of a direct SVD
    # (else dust columns pass as real and their "recovered" axes are
    # garbage that breaks basis orthonormality on rank-deficient data).
    cutoff = singular_values[0] * np.sqrt(
        max(t, m) * np.finfo(np.float64).eps
    )
    rank = int(np.count_nonzero(singular_values > cutoff))
    components = (centered.T @ left[:, :rank]) / singular_values[:rank]
    # Re-orthonormalize: dividing by σ amplifies rounding in the small-σ
    # columns; one thin QR restores orthogonality without changing the
    # spanned subspace (R is upper-triangular and near-identity).
    components, r = np.linalg.qr(components)
    components *= np.sign(np.diag(r))
    return components, singular_values[:rank], "gram-sample"
