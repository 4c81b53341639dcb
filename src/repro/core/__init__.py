"""The subspace method (the paper's contribution, §4-§5).

Pipeline:

1. :class:`~repro.core.pca.PCA` — principal components of the link
   measurement matrix ``Y`` (§4.2);
2. :class:`~repro.core.subspace.SubspaceModel` — separation into the
   normal subspace ``S`` and anomalous subspace ``S̃`` via the 3-sigma
   projection rule (§4.3), with the projectors ``C = P Pᵀ`` and
   ``C̃ = I − C``;
3. :func:`~repro.core.qstatistic.q_threshold` — the Jackson–Mudholkar
   Q-statistic limit ``δ²_α`` for the squared prediction error (§5.1);
4. :class:`~repro.core.detection.SPEDetector` — flags timesteps with
   ``SPE = ‖ỹ‖² > δ²_α``;
5. :mod:`~repro.core.identification` — picks the OD flow (or flow set)
   best explaining the residual (§5.2, Eq. 1; §7.2);
6. :mod:`~repro.core.quantification` — estimates the anomaly's bytes
   (§5.3);
7. :class:`~repro.core.diagnosis.AnomalyDiagnoser` — the three steps
   packaged behind one ``fit`` / ``diagnose`` API.
"""

from repro.core.pca import PCA
from repro.core.suffstats import FinalizedStats, SufficientStats
from repro.core.subspace import (
    ScoreMoments,
    SeparationResult,
    SubspaceModel,
    score_moments,
    separate_axes,
    separate_axes_from_moments,
)
from repro.core.qstatistic import q_threshold, q_thresholds, box_approx_threshold
from repro.core.detection import SPEDetector, DetectionResult
from repro.core.identification import (
    identify_block,
    identify_single_flow,
    identify_multi_flow,
    identify_multi_flow_block,
    BlockIdentification,
    IdentificationResult,
    IdentificationState,
)
from repro.core.quantification import quantify, quantify_multi
from repro.core.diagnosis import AnomalyDiagnoser, Diagnosis
from repro.core.detectability import detectability_thresholds, DetectabilityReport
from repro.core.online import OnlineSubspaceDetector
from repro.core.incremental import IncrementalSubspaceTracker, principal_angles
from repro.core.multiscale import MultiscaleDetector, haar_dwt, haar_idwt
from repro.core.routing_anomalies import (
    RoutingAnomalyIdentifier,
    RoutingDiagnosis,
    RoutingHypothesis,
)

__all__ = [
    "PCA",
    "SufficientStats",
    "FinalizedStats",
    "SubspaceModel",
    "SeparationResult",
    "ScoreMoments",
    "score_moments",
    "separate_axes",
    "separate_axes_from_moments",
    "q_threshold",
    "q_thresholds",
    "box_approx_threshold",
    "SPEDetector",
    "DetectionResult",
    "identify_block",
    "identify_single_flow",
    "identify_multi_flow",
    "identify_multi_flow_block",
    "BlockIdentification",
    "IdentificationResult",
    "IdentificationState",
    "quantify",
    "quantify_multi",
    "AnomalyDiagnoser",
    "Diagnosis",
    "detectability_thresholds",
    "DetectabilityReport",
    "OnlineSubspaceDetector",
    "IncrementalSubspaceTracker",
    "principal_angles",
    "MultiscaleDetector",
    "RoutingAnomalyIdentifier",
    "RoutingDiagnosis",
    "RoutingHypothesis",
    "haar_dwt",
    "haar_idwt",
]
