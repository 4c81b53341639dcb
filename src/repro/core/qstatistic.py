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

The normal quantile ``c_α = ndtri(1 − α)`` is :func:`ndtri` below, a
port in plain Python floats of the Cephes routine (S. L. Moshier's
Cephes Math Library) that ``scipy.special.ndtri`` and so
``scipy.stats.norm.ppf`` evaluate: the same coefficients, the same
Horner order and the same libm ``log``, so it returns their bits on all
of ``[0, 1]``.  Box's chi-square quantile ``χ²_h(p) = 2·gammaincinv(h/2,
p)``, the function ``scipy.stats.chi2.ppf`` evaluates, imports
:mod:`scipy.special` on its first call.  JM's limit needs no scipy, so
a process whose limits never fall back to Box (the service, the
sharded fit and the batch pipeline among them) starts without it; the
first fallback pays the one-time import, about 0.3–0.4 s.
"""

from __future__ import annotations

import math

import numpy as np

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
    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2)
    if h0 <= 0.0:
        return g * _chi2_quantile(conf, h)
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
    # Box's quantile is elementwise, so evaluating it only at the levels
    # that fall back gives those levels the bits a full sweep gave them.
    fallback = ~(valid & np.isfinite(jm) & (jm >= 0.0))
    if fallback.any():
        jm[fallback] = g * _chi2_quantile(conf[fallback], h)
    return jm


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
    ``chi2.ppf`` computes it.  Only Box's fallback calls it, so
    :mod:`scipy.special` loads on the first fallback, not at import."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(df / 2, p)


def ndtri(p):
    """The standard-normal quantile ``Φ⁻¹(p)``, bit for bit
    ``scipy.special.ndtri``; a scalar gives a float, an array an array
    of its shape."""
    if np.ndim(p) == 0:
        return _ndtri(float(p))
    levels = np.asarray(p, dtype=np.float64)
    return np.array(
        [_ndtri(level) for level in levels.ravel().tolist()], dtype=np.float64
    ).reshape(levels.shape)


# Cephes ndtri's rational approximations.  P0/Q0 serve e⁻² < p < 1 − e⁻²,
# in p − ½; P1/Q1 and P2/Q2 serve the tails, in z = 1/x with
# x = √(−2 ln y) in [2, 8) and [8, 64) for y the smaller of p and 1 − p.
# Cephes leaves each Q's leading 1 implied (``p1evl``); it is written out
# here, which rounds the same, because 1·z is exact.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _ndtri(p: float) -> float:
    """Cephes ``ndtri`` step for step: every operation in its order, so
    every rounding is the C routine's."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    y, lower = p, True
    if y > 1.0 - _EXP_M2:
        y, lower = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if lower else x


def _polevl(x: float, coefficients) -> float:
    """Horner's rule from the leading coefficient (Cephes ``polevl``)."""
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


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
