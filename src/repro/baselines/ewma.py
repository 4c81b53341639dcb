"""Exponentially weighted moving average forecasting (§6.2).

The EWMA prediction for time ``t + 1`` is

    ẑ_{t+1} = α·z_t + (1 − α)·ẑ_t

with ``0 ≤ α ≤ 1`` weighting recent history.  The paper selects α by a
multi-grid search on training data (finding 0.2 ≤ α ≤ 0.3 effective) and
measures anomalies as ``|z_t − ẑ_t|``.

Footnote 4's correction is implemented: a moving-average scheme flags the
bin *after* a spike as a second spike (the spike inflates the forecast).
Running EWMA in both time directions and taking the per-bin *minimum* of
the two deviation estimates suppresses this echo.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import TimeseriesModel
from repro.exceptions import ModelError

__all__ = ["EWMAModel", "ewma_forecast", "grid_search_alpha"]


def ewma_forecast(series: np.ndarray, alpha: float) -> np.ndarray:
    """One-step-ahead EWMA forecasts ``ẑ_t`` for each ``t``.

    ``ẑ_0`` is seeded with ``z_0`` (zero initial surprise); thereafter
    ``ẑ_{t+1} = α·z_t + (1 − α)·ẑ_t``.  Works column-wise on matrices.

    The recursion is an order-1 IIR filter, so it runs as one
    :func:`scipy.signal.lfilter` call instead of a per-bin Python loop.
    The filter's direct-form update performs the same two products and
    one sum per bin as the loop, so the output is bit-identical to
    :func:`_ewma_forecast_loop` (the regression suite pins this).
    """
    # Imported here, not with the module: scipy.signal takes over a
    # second to load, and only the baselines run this filter.
    from scipy.signal import lfilter

    if not 0.0 <= alpha <= 1.0:
        raise ModelError(f"alpha must lie in [0, 1], got {alpha}")
    series = np.asarray(series, dtype=np.float64)
    squeeze = series.ndim == 1
    if squeeze:
        series = series[:, None]
    forecasts = np.empty_like(series)
    forecasts[0] = series[0]
    if series.shape[0] > 1:
        # ẑ_{t+1} = α·z_t + (1−α)·ẑ_t  ⇔  y = lfilter([α], [1, −(1−α)], z)
        # with the filter state seeded so that y[0] = α·z_0 + (1−α)·ẑ_0.
        forecasts[1:], _ = lfilter(
            np.array([alpha]),
            np.array([1.0, -(1.0 - alpha)]),
            series[:-1],
            axis=0,
            zi=((1.0 - alpha) * forecasts[0])[None, :],
        )
    return forecasts[:, 0] if squeeze else forecasts


def _ewma_forecast_loop(series: np.ndarray, alpha: float) -> np.ndarray:
    """Reference per-bin recursion (pre-vectorization implementation).

    Kept for the bit-identity regression tests and benchmarks; do not
    use on hot paths.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError(f"alpha must lie in [0, 1], got {alpha}")
    series = np.asarray(series, dtype=np.float64)
    squeeze = series.ndim == 1
    if squeeze:
        series = series[:, None]
    forecasts = np.empty_like(series)
    forecasts[0] = series[0]
    for t in range(1, series.shape[0]):
        forecasts[t] = alpha * series[t - 1] + (1.0 - alpha) * forecasts[t - 1]
    return forecasts[:, 0] if squeeze else forecasts


def grid_search_alpha(
    series: np.ndarray,
    grid: np.ndarray | None = None,
    refinements: int = 2,
) -> float:
    """Multi-grid search for the α minimizing mean squared forecast error.

    Mirrors the paper's parameter-selection protocol ([19]): evaluate a
    coarse grid, then refine around the winner.
    """
    series = np.asarray(series, dtype=np.float64)
    if grid is None:
        grid = np.linspace(0.05, 0.95, 10)

    def mse(alpha: float) -> float:
        forecasts = ewma_forecast(series, alpha)
        return float(np.mean((series - forecasts) ** 2))

    best = min(grid, key=mse)
    width = float(grid[1] - grid[0]) if len(grid) > 1 else 0.1
    for _ in range(refinements):
        width /= 2.0
        local = np.clip(np.linspace(best - width, best + width, 5), 0.0, 1.0)
        best = min(local, key=mse)
    return float(best)


class EWMAModel(TimeseriesModel):
    """EWMA baseline with bidirectional spike-echo suppression.

    Parameters
    ----------
    alpha:
        Smoothing weight; the paper found 0.2-0.3 effective.  Pass None to
        grid-search per call (slower; used by the ground-truth extractor
        when fidelity to the paper's protocol matters).
    bidirectional:
        Apply footnote 4's forward/backward minimum.  When False the plain
        forward residual is returned.
    """

    def __init__(self, alpha: float | None = 0.25, bidirectional: bool = True) -> None:
        if alpha is not None and not 0.0 <= alpha <= 1.0:
            raise ModelError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = alpha
        self.bidirectional = bidirectional

    def _alpha_for(self, series: np.ndarray) -> float:
        if self.alpha is not None:
            return self.alpha
        return grid_search_alpha(series)

    def predict(self, series: np.ndarray) -> np.ndarray:
        series = self._check(series)
        return ewma_forecast(series, self._alpha_for(series))

    def anomaly_sizes(self, series: np.ndarray) -> np.ndarray:
        """``|z − ẑ|`` with the bidirectional minimum of footnote 4."""
        series = self._check(series)
        alpha = self._alpha_for(series)
        forward = np.abs(series - ewma_forecast(series, alpha))
        if not self.bidirectional:
            return forward
        reversed_series = series[::-1]
        backward = np.abs(
            reversed_series - ewma_forecast(reversed_series, alpha)
        )[::-1]
        return np.minimum(forward, backward)

    def residual_energy(self, series: np.ndarray) -> np.ndarray:
        """Per-timestep squared deviation magnitude (bidirectional sizes)."""
        sizes = self.anomaly_sizes(series)
        if sizes.ndim == 1:
            return sizes**2
        return np.einsum("ij,ij->i", sizes, sizes)
