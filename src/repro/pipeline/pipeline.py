"""The end-to-end detection pipeline.

The subspace method is inherently a pipeline — link measurements →
traffic matrix → PCA subspace separation → Q-statistic detection →
anomaly identification/quantification — and :class:`DetectionPipeline`
wires those stages into one object with three entry points:

``fit``
    Train the subspace model (PCA + 3σ separation + Q-statistic limit)
    on a block of link measurements, optionally binding a routing matrix
    that supplies the candidate anomaly set.
``detect``
    Diagnose a whole ``(t, m)`` block in one vectorized pass: SPE and
    flags for every timestep, plus identification and byte quantification
    for every flagged timestep from the
    :class:`~repro.core.identification.IdentificationState` built at fit
    time.
``stream``
    Process arrivals window by window against an exponentially weighted
    model backed by
    :class:`~repro.core.incremental.IncrementalSubspaceTracker`.

Those entry points cover one model lifecycle each; the pipeline package
supports four (see :mod:`repro.pipeline`): fit-once batch application,
the exponential fold of ``stream`` (drift-tracking refreshes, no
from-scratch refit inside the stream), the periodic refresh cadence of
:class:`~repro.core.online.OnlineSubspaceDetector`, and full sharded
refits via :class:`~repro.pipeline.sharded.TemporalCoordinator`, whose
merged-statistics fit is bit-identical to refitting here on the
concatenated history.

The batch path is numerically identical to running the per-module
sequence (:class:`~repro.core.detection.SPEDetector` →
:func:`~repro.core.identification.identify_single_flow` →
:func:`~repro.core.quantification.quantify`) one timestep at a time —
tests assert it — but runs orders of magnitude faster because every
stage is a matrix product over the full block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro._util import ensure_matrix
from repro.core.detection import DetectionResult, SPEDetector
from repro.core.diagnosis import Diagnosis
from repro.core.identification import IdentificationState

# perfbench's layer table times ``identify_block`` in this module; the
# name stays bound here until that table follows IdentificationState.
from repro.core.identification import identify_block  # noqa: F401
from repro.datasets.dataset import Dataset
from repro.exceptions import ModelError, NotFittedError
from repro.pipeline.streaming import StreamingDetector, StreamWindow
from repro.routing.routing_matrix import RoutingMatrix

__all__ = ["DetectionPipeline", "PipelineResult"]


@dataclass(frozen=True)
class PipelineResult:
    """Full diagnosis of one measurement block.

    Per-timestep arrays (``spe``, ``flags``) cover the whole block;
    per-anomaly arrays (``flow_indices``, ``magnitudes``,
    ``estimated_bytes``) align with ``anomalous_bins`` and are empty when
    nothing was flagged or no routing matrix was bound at fit time.

    Attributes
    ----------
    detection:
        The underlying :class:`~repro.core.detection.DetectionResult`
        (SPE per timestep, threshold, flags, confidence).
    anomalous_bins:
        Indices of flagged timesteps, ascending.
    flow_indices:
        Identified OD flow per flagged timestep (empty without routing).
    od_pairs:
        The identified flows as ``(origin, destination)`` PoP names.
    magnitudes:
        Signed anomaly magnitude ``f̂`` along each identified direction.
    estimated_bytes:
        Quantified anomaly sizes (§5.3), signed.
    identified:
        True when identification ran (a routing matrix was bound at fit
        time and some flow is visible in the model's residual subspace)
        — even if no timestep was flagged.
    """

    detection: DetectionResult
    anomalous_bins: np.ndarray
    flow_indices: np.ndarray
    od_pairs: tuple[tuple[str, str], ...]
    magnitudes: np.ndarray
    estimated_bytes: np.ndarray
    identified: bool

    # ------------------------------------------------------------------
    @property
    def spe(self) -> np.ndarray:
        """SPE per timestep (whole block)."""
        return self.detection.spe

    @property
    def threshold(self) -> float:
        """The Q-statistic limit used."""
        return self.detection.threshold

    @property
    def flags(self) -> np.ndarray:
        """Boolean anomaly indicator per timestep."""
        return self.detection.flags

    @property
    def num_alarms(self) -> int:
        """Number of flagged timesteps."""
        return self.detection.num_alarms

    def diagnoses(self) -> list[Diagnosis]:
        """The result as a list of per-anomaly :class:`Diagnosis` records.

        Matches :meth:`AnomalyDiagnoser.diagnose
        <repro.core.diagnosis.AnomalyDiagnoser.diagnose>` record for
        record; raises when identification did not run.
        """
        if not self.identified:
            raise ModelError(
                "identification did not run: fit the pipeline with a "
                "routing matrix to obtain diagnoses"
            )
        return [
            Diagnosis(
                time_bin=int(bin_),
                spe=float(self.detection.spe[bin_]),
                threshold=self.detection.threshold,
                flow_index=int(flow),
                od_pair=pair,
                estimated_bytes=float(size),
                magnitude=float(magnitude),
            )
            for bin_, flow, pair, size, magnitude in zip(
                self.anomalous_bins,
                self.flow_indices,
                self.od_pairs,
                self.estimated_bytes,
                self.magnitudes,
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PipelineResult({self.flags.size} bins, "
            f"{self.num_alarms} alarms, threshold {self.threshold:.3e})"
        )


class DetectionPipeline:
    """Measurements → subspace model → detection → identification.

    Parameters are forwarded to
    :class:`~repro.core.detection.SPEDetector`; see there for the
    paper's settings (confidence 0.995/0.999, 3σ separation).

    Examples
    --------
    >>> from repro.datasets import build_dataset
    >>> from repro.pipeline import DetectionPipeline
    >>> ds = build_dataset("abilene")
    >>> pipe = DetectionPipeline(confidence=0.999).fit(
    ...     ds.link_traffic, routing=ds.routing)
    >>> result = pipe.detect(ds.link_traffic)
    >>> bool(result.num_alarms == len(result.diagnoses()))
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
        self._detector = SPEDetector(
            confidence=confidence,
            threshold_sigma=threshold_sigma,
            normal_rank=normal_rank,
            min_normal_rank=min_normal_rank,
            max_normal_rank=max_normal_rank,
            svd_method=svd_method,
            dtype=dtype,
        )
        self._routing: RoutingMatrix | None = None
        self._identification: IdentificationState | None = None
        self._quant_ratio: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "DetectionPipeline":
        """Build and fit a pipeline from one evaluation dataset.

        Fits on ``dataset.link_traffic`` with ``dataset.routing`` bound,
        forwarding keyword arguments to the constructor.
        """
        return cls(**kwargs).fit(dataset.link_traffic, routing=dataset.routing)

    def fit(
        self,
        measurements: np.ndarray,
        routing: RoutingMatrix | None = None,
    ) -> "DetectionPipeline":
        """Fit the subspace model on a ``(t, m)`` training block.

        Parameters
        ----------
        measurements:
            Link byte counts, one row per time bin.
        routing:
            Optional routing matrix.  When given, every flagged timestep
            is also identified (winning OD flow) and quantified (bytes);
            without it the pipeline performs detection only.
        """
        measurements = ensure_matrix(
            measurements, name="measurements", error=ModelError,
            check_finite=False,
        )
        if routing is not None and routing.num_links != measurements.shape[1]:
            raise ModelError(
                f"measurements cover {measurements.shape[1]} links but the "
                f"routing matrix has {routing.num_links}"
            )
        self._detector.fit(measurements)
        self._routing = routing
        self._identification = None
        self._quant_ratio = None
        if routing is not None:
            state = IdentificationState(
                self._detector.model,
                routing.normalized_columns(),
                routing.od_pairs,
            )
            # A model that sees no flow cannot identify any alarm: it
            # detects only, as without routing (decided once per fit).
            if state.visible:
                self._identification = state
                self._quant_ratio = routing.quantification_ratios()
        return self

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        try:
            self._detector.model
        except NotFittedError:
            return False
        return True

    @property
    def detector(self) -> SPEDetector:
        """The underlying fitted detector."""
        return self._detector

    @property
    def routing(self) -> RoutingMatrix | None:
        """The bound routing matrix (None = detection only)."""
        return self._routing

    @property
    def threshold(self) -> float:
        """The fitted SPE limit ``δ²_α``."""
        return self._detector.threshold

    @property
    def normal_rank(self) -> int:
        """The fitted normal-subspace rank ``r``."""
        return self._detector.normal_rank

    # ------------------------------------------------------------------
    def detect(
        self,
        measurements: np.ndarray,
        confidence: float | None = None,
    ) -> PipelineResult:
        """Diagnose a measurement block in one vectorized pass.

        Detection covers every row; identification and quantification run
        only on the flagged rows (the paper's evaluation protocol, §6.2)
        and only when a routing matrix was bound at fit time and the
        fitted model sees some flow in its residual subspace.

        ``confidence`` overrides the fitted level without refitting.
        """
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.ndim == 1:
            measurements = measurements[None, :]
        detection = self._detector.detect(measurements, confidence=confidence)
        bins = detection.anomalous_bins

        state = self._identification
        if state is None or bins.size == 0:
            empty = np.empty(0)
            return PipelineResult(
                detection=detection,
                anomalous_bins=bins,
                flow_indices=np.empty(0, dtype=np.int64),
                od_pairs=(),
                magnitudes=empty,
                estimated_bytes=empty,
                identified=state is not None,
            )

        identification = state.identify(measurements[bins])
        winners = identification.flow_indices
        od_pairs = tuple(state.od_pairs[i] for i in winners.tolist())
        estimated = identification.magnitudes * self._quant_ratio[winners]
        return PipelineResult(
            detection=detection,
            anomalous_bins=bins,
            flow_indices=winners,
            od_pairs=od_pairs,
            magnitudes=identification.magnitudes,
            estimated_bytes=estimated,
            identified=True,
        )

    # ------------------------------------------------------------------
    def streaming(
        self,
        forgetting: float = 1.0 / 1008.0,
        confidence: float | None = None,
        refresh_interval: int | None = 36,
    ) -> StreamingDetector:
        """A streaming detector seeded from the fitted batch model.

        The fitted mean and covariance (reconstructed as
        ``V diag(λ) Vᵀ`` from the PCA) warm-start an
        :class:`~repro.core.incremental.IncrementalSubspaceTracker`, so
        streaming begins from exactly the batch model and then tracks
        drift with exponential forgetting; ``refresh_interval`` sets the
        eigendecomposition refresh cadence in arrivals (block folds may
        also refresh explicitly).  When drift outgrows what the fold can
        track, refit — monolithically via :meth:`fit` or shard-parallel
        via :class:`~repro.pipeline.sharded.TemporalCoordinator` — and
        seed a fresh streaming detector from the new model.
        """
        model = self._detector.model
        pca = model.pca
        covariance = (pca.components * pca.eigenvalues()) @ pca.components.T
        return StreamingDetector.from_moments(
            mean=pca.mean,
            covariance=covariance,
            normal_rank=model.normal_rank,
            forgetting=forgetting,
            confidence=(
                self._detector.confidence if confidence is None else confidence
            ),
            routing=self._routing,
            refresh_interval=refresh_interval,
        )

    def stream(
        self,
        measurements: np.ndarray,
        window_bins: int = 36,
        forgetting: float = 1.0 / 1008.0,
        confidence: float | None = None,
    ) -> Iterator[StreamWindow]:
        """Stream a measurement block window by window.

        Each window is scored in one vectorized pass against the current
        model, then folded into the exponentially weighted statistics
        (one eigendecomposition refresh per window — an ``m × m``
        problem, tiny next to a full refit).  Yields one
        :class:`~repro.pipeline.streaming.StreamWindow` per window.
        """
        return self.streaming(
            forgetting=forgetting, confidence=confidence
        ).stream(measurements, window_bins=window_bins)
