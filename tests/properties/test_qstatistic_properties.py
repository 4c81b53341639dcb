"""Property-based tests for the vectorized Q-statistic threshold sweep.

``q_thresholds`` powers every confidence grid in the pipeline layer;
these properties pin the two contracts grid drivers rely on: loop
consistency with the scalar :func:`~repro.core.qstatistic.q_threshold`
(including the Box fallback) and monotonicity in the confidence level.
A third pins every limit bit for bit to the same formulas with their
quantiles from :mod:`scipy.stats`, and a fourth pins the module's own
normal quantile to ``scipy.special.ndtri`` on all of ``[0, 1]``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from repro.core import qstatistic
from repro.core.qstatistic import box_approx_threshold, q_threshold, q_thresholds
from repro.exceptions import ModelError


def eigen_spectra(min_size=1, max_size=12):
    """Random positive residual spectra."""
    sizes = st.integers(min_size, max_size)
    return sizes.flatmap(
        lambda n: hnp.arrays(
            dtype=np.float64,
            shape=n,
            elements=st.floats(1e-6, 1e6, allow_nan=False),
        )
    )


def confidence_ladders(min_size=2, max_size=6):
    """Strictly increasing confidence grids inside (0, 1)."""
    return st.lists(
        st.floats(0.9, 0.99999), min_size=min_size, max_size=max_size,
        unique=True,
    ).map(sorted)


@settings(max_examples=80, deadline=None)
@given(eigen_spectra(), confidence_ladders())
def test_q_thresholds_matches_scalar_loop(spectrum, confidences):
    vectorized = q_thresholds(spectrum, np.asarray(confidences))
    looped = np.array([q_threshold(spectrum, c) for c in confidences])
    assert np.allclose(vectorized, looped, rtol=1e-12, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(eigen_spectra(), confidence_ladders())
def test_q_thresholds_monotone_in_confidence(spectrum, confidences):
    """A stricter confidence level can never lower the SPE limit."""
    thresholds = q_thresholds(spectrum, np.asarray(confidences))
    assert np.all(np.diff(thresholds) >= -1e-9 * np.abs(thresholds[:-1]))


@settings(max_examples=40, deadline=None)
@given(eigen_spectra(), st.floats(0.9, 0.9999))
def test_singleton_grid_equals_scalar(spectrum, confidence):
    grid = q_thresholds(spectrum, np.asarray([confidence]))
    assert grid.shape == (1,)
    assert grid[0] == pytest.approx(
        q_threshold(spectrum, confidence), rel=1e-12
    )


def test_rejects_out_of_range_levels():
    spectrum = np.array([3.0, 2.0, 1.0])
    with pytest.raises(ModelError, match="confidence"):
        q_thresholds(spectrum, np.array([0.5, 1.0]))
    with pytest.raises(ModelError, match="vector"):
        q_thresholds(spectrum, np.array([[0.9]]))


def wide_spectra():
    """Residual spectra over 24 decades: some take the JM limit, some
    (a dominant eigenvalue over a long tail) fall back to Box."""
    return st.lists(
        st.floats(-12.0, 12.0).map(lambda e: 10.0**e), min_size=1, max_size=60
    ).map(np.array)


def limits(spectrum, confidences) -> bytes:
    """Every limit of ``spectrum`` the module computes, as bytes."""
    values = [q_thresholds(spectrum, confidences)]
    for confidence in confidences.tolist():
        values.append(q_threshold(spectrum, confidence))
        values.append(box_approx_threshold(spectrum, confidence))
    return np.hstack(values).tobytes()


def scipy_stats_quantiles():
    """The module with its two quantiles computed by ``scipy.stats``."""
    return mock.patch.multiple(
        qstatistic,
        ndtri=stats.norm.ppf,
        _chi2_quantile=lambda p, df: stats.chi2.ppf(p, df=df),
    )


@settings(max_examples=150, deadline=None)
@given(
    spectrum=wide_spectra(),
    confidences=st.lists(
        st.floats(1e-9, 1.0 - 1e-12, exclude_max=True), min_size=1, max_size=6
    ).map(np.array),
)
@example(
    spectrum=np.array([1.0] + [0.01] * 100),  # h0 < 0: the Box fallback
    confidences=np.array([0.5, 0.995, 0.999]),
)
def test_limits_bitwise_equal_scipy_stats(spectrum, confidences):
    """``q_threshold``, ``q_thresholds`` and ``box_approx_threshold``
    take ``norm.ppf`` and ``chi2.ppf`` from :mod:`scipy.special` (the
    service then never imports :mod:`scipy.stats`); each limit equals
    the one computed with the ``scipy.stats`` quantiles, bit for bit,
    and so do the quantiles themselves, scalar and vector."""
    served = limits(spectrum, confidences)
    with scipy_stats_quantiles():
        reference = limits(spectrum, confidences)
    assert served == reference
    phi1, phi2 = float(np.sum(spectrum)), float(np.sum(spectrum**2))
    df = phi1**2 / phi2
    for p in (confidences, float(confidences[0])):
        assert np.asarray(qstatistic.ndtri(p)).tobytes() == np.asarray(
            stats.norm.ppf(p)
        ).tobytes()
        assert np.asarray(qstatistic._chi2_quantile(p, df)).tobytes() == (
            np.asarray(stats.chi2.ppf(p, df=df)).tobytes()
        )


def _neighbours(level: float) -> list[float]:
    return [math.nextafter(level, 0.0), level, math.nextafter(level, 1.0)]


#: The ends, the middle, the two branch edges at e⁻² (the Cephes
#: constant) and e⁻³² (where √(−2 ln p) reaches 8) with their
#: neighbouring floats, the smallest subnormal and the largest level
#: below 1.
NDTRI_EDGES = (
    [0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53]
    + _neighbours(0.13533528323661269189)
    + _neighbours(1.0 - 0.13533528323661269189)
    + _neighbours(math.exp(-32.0))
)


def unit_levels():
    """Levels on all of [0, 1]: uniform (subnormals included), and
    log-uniform toward 0 and toward 1, where the x ≥ 8 tail branch
    lives."""
    return st.one_of(
        st.floats(0.0, 1.0, allow_subnormal=True),
        st.floats(0.0, 308.0).map(lambda e: 10.0**-e),
        st.floats(0.0, 16.0).map(lambda e: 1.0 - 10.0**-e),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(unit_levels(), min_size=1, max_size=8))
@example(NDTRI_EDGES)
def test_ndtri_is_scipy_special_ndtri_bitwise(levels):
    """The port returns ``scipy.special.ndtri``'s bits for a scalar,
    and for an array of any shape, which it keeps."""
    for level in levels:
        assert np.asarray(qstatistic.ndtri(level)).tobytes() == (
            np.asarray(special.ndtri(level)).tobytes()
        )
    grid = np.array(levels)
    for shaped in (grid, grid[None, :], grid[:, None]):
        port = qstatistic.ndtri(shaped)
        assert port.shape == shaped.shape
        assert port.dtype == np.float64
        assert port.tobytes() == special.ndtri(shaped).tobytes()
