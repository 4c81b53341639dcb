"""The Jackson–Mudholkar Q-statistic threshold (§5.1, [16]).

Under a multivariate-Gaussian model of normal traffic, the squared
prediction error obeys the distributional result of Jackson & Mudholkar
(Technometrics 1979): with ``φ_i = Σ_{j>r} λ_jⁱ`` over the residual
eigenvalues and ``h₀ = 1 − 2φ₁φ₃ / (3φ₂²)``,

    δ²_α = φ₁ · [ c_α·√(2φ₂h₀²)/φ₁ + 1 + φ₂h₀(h₀−1)/φ₁² ]^(1/h₀)

bounds SPE at confidence level ``1 − α``; ``c_α`` is the ``1 − α``
standard-normal quantile.  The result holds regardless of how many
components the normal subspace retains, and is robust to moderate
non-Gaussianity (Jensen & Solomon, paper's [17]).

Eigenvalues must be *sample-covariance* eigenvalues
(``‖Yv_j‖² / (t−1)``; DESIGN.md §5), so the threshold and the per-sample
SPE live on the same scale.

For pathological eigenvalue spectra the JM expression can leave its
domain (non-positive bracket); :func:`q_threshold` then falls back to
Box's chi-square approximation ``g·χ²_h`` with ``g = φ₂/φ₁`` and
``h = φ₁²/φ₂``, the standard alternative in the process-control
literature the paper draws on ([7, 8]).

Both quantiles come from :mod:`scipy.special`, the functions
:mod:`scipy.stats` evaluates them with: ``c_α = ndtri(1 − α)`` and the
chi-square quantile ``χ²_h(p) = 2·gammaincinv(h/2, p)``, bit for bit
equal to ``norm.ppf`` and ``chi2.ppf`` without importing
:mod:`scipy.stats`, which would add about a second to the start-up of
every process that computes a limit (the service among them).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv, ndtri

from repro.exceptions import ModelError

__all__ = [
    "q_threshold",
    "q_thresholds",
    "box_approx_threshold",
    "residual_phis",
]


def residual_phis(residual_eigenvalues: np.ndarray) -> tuple[float, float, float]:
    """``(φ₁, φ₂, φ₃)`` — power sums of the residual eigenvalues."""
    lam = _check_eigenvalues(residual_eigenvalues)
    return (
        float(np.sum(lam)),
        float(np.sum(lam**2)),
        float(np.sum(lam**3)),
    )


def q_threshold(
    residual_eigenvalues: np.ndarray,
    confidence: float = 0.999,
) -> float:
    """The SPE limit ``δ²_α`` at the given confidence level.

    Parameters
    ----------
    residual_eigenvalues:
        Sample-covariance eigenvalues of the axes assigned to the
        anomalous subspace (``λ_{r+1} .. λ_m``).
    confidence:
        ``1 − α``; the paper reports results at 0.995 and 0.999.

    Returns
    -------
    float
        The threshold; 0.0 when the residual subspace is empty or carries
        no variance (then SPE is identically zero).
    """
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must lie in (0, 1), got {confidence}")
    lam = _check_eigenvalues(residual_eigenvalues)
    if lam.size == 0:
        return 0.0
    phi1, phi2, phi3 = residual_phis(lam)
    if phi1 == 0.0:
        return 0.0
    if phi2 == 0.0 or phi3 == 0.0:
        # A single non-zero eigenvalue keeps all phis positive, so reaching
        # here means all eigenvalues are zero (handled above) or numerical
        # underflow; be safe.
        return 0.0

    if phi2**2 == 0.0 or phi1**2 == 0.0:
        # Subnormal spectra (λ ≲ 1e-155) underflow the squared power sums
        # to exact zero even though the phis themselves are non-zero; the
        # SPE scale is numerically zero there, like the all-zero case.
        return 0.0
    c_alpha = float(ndtri(confidence))
    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2)
    if h0 <= 0.0:
        # The JM derivation assumes h0 > 0; spectra dominated by a single
        # large residual eigenvalue can push h0 negative, where the
        # expression decays *below* the SPE mean.  Fall back to Box.
        return box_approx_threshold(lam, confidence)
    bracket = (
        c_alpha * np.sqrt(2.0 * phi2 * h0**2) / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / phi1**2
    )
    if bracket <= 0.0:
        return box_approx_threshold(lam, confidence)
    threshold = phi1 * bracket ** (1.0 / h0)
    if not np.isfinite(threshold) or threshold < 0:
        return box_approx_threshold(lam, confidence)
    return float(threshold)


def q_thresholds(
    residual_eigenvalues: np.ndarray,
    confidences: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`q_threshold` over an array of confidence levels.

    The eigenvalue power sums ``φ₁, φ₂, φ₃`` and the exponent ``h₀``
    depend only on the spectrum, so a sweep over confidence levels (the
    expensive part of a threshold-sensitivity scenario grid) reduces to
    one normal-quantile evaluation per level plus elementwise algebra.

    Parameters
    ----------
    residual_eigenvalues:
        Sample-covariance eigenvalues of the anomalous subspace, as for
        :func:`q_threshold`.
    confidences:
        Array of ``1 − α`` levels, each in ``(0, 1)``.

    Returns
    -------
    numpy.ndarray
        ``δ²_α`` per confidence level, identical elementwise to calling
        :func:`q_threshold` in a loop (including the Box fallback for
        levels where the JM bracket leaves its domain).
    """
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.ndim != 1:
        raise ModelError(f"confidences must form a vector, got shape {conf.shape}")
    if conf.size and not np.all((conf > 0.0) & (conf < 1.0)):
        raise ModelError("every confidence must lie in (0, 1)")
    lam = _check_eigenvalues(residual_eigenvalues)
    if lam.size == 0 or conf.size == 0:
        return np.zeros(conf.shape)
    phi1, phi2, phi3 = residual_phis(lam)
    if phi1 == 0.0 or phi2 == 0.0 or phi3 == 0.0:
        return np.zeros(conf.shape)
    if phi2**2 == 0.0 or phi1**2 == 0.0:
        # Same subnormal-underflow guard as the scalar path: the squared
        # power sums flush to zero, so the limit is numerically zero.
        return np.zeros(conf.shape)

    g = phi2 / phi1
    h = phi1**2 / phi2
    box = g * _chi2_quantile(conf, h)

    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2)
    if h0 <= 0.0:
        return box
    c_alpha = ndtri(conf)
    bracket = (
        c_alpha * np.sqrt(2.0 * phi2 * h0**2) / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / phi1**2
    )
    valid = bracket > 0.0
    jm = np.full(conf.shape, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        jm[valid] = phi1 * bracket[valid] ** (1.0 / h0)
    use_jm = valid & np.isfinite(jm) & (jm >= 0.0)
    return np.where(use_jm, jm, box)


def box_approx_threshold(
    residual_eigenvalues: np.ndarray,
    confidence: float = 0.999,
) -> float:
    """Box's ``g·χ²_h`` approximation to the SPE limit.

    Matches the first two moments of SPE: ``g = φ₂/φ₁``, ``h = φ₁²/φ₂``.
    Used as the fallback when the JM expression is undefined, and exposed
    for ablation benches comparing the two limits.
    """
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must lie in (0, 1), got {confidence}")
    lam = _check_eigenvalues(residual_eigenvalues)
    if lam.size == 0:
        return 0.0
    phi1 = float(np.sum(lam))
    phi2 = float(np.sum(lam**2))
    if phi1 == 0.0 or phi2 == 0.0:
        return 0.0
    g = phi2 / phi1
    h = phi1**2 / phi2
    return float(g * _chi2_quantile(confidence, h))


def _chi2_quantile(p, df: float):
    """The chi-square quantile ``χ²_df(p)`` for ``p`` in ``(0, 1)``, as
    ``chi2.ppf`` computes it."""
    return 2 * gammaincinv(df / 2, p)


def _check_eigenvalues(residual_eigenvalues: np.ndarray) -> np.ndarray:
    lam = np.asarray(residual_eigenvalues, dtype=np.float64)
    if lam.ndim != 1:
        raise ModelError(
            f"residual eigenvalues must form a vector, got shape {lam.shape}"
        )
    if lam.size and not np.all(np.isfinite(lam)):
        raise ModelError("residual eigenvalues contain non-finite values")
    if np.any(lam < -1e-9):
        raise ModelError("residual eigenvalues must be non-negative")
    return np.maximum(lam, 0.0)
