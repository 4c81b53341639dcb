"""repro — a reproduction of Lakhina, Crovella & Diot,
"Diagnosing Network-Wide Traffic Anomalies" (SIGCOMM 2004).

The package implements the paper's subspace method for diagnosing
network-wide volume anomalies from per-link byte counts, together with
every substrate the evaluation needs: backbone topologies, shortest-path
routing and routing matrices, synthetic OD-flow traffic with ground-truth
anomalies, a sampled-flow / SNMP measurement plane, the temporal baselines
(EWMA, Fourier, Holt-Winters, wavelet), and the full validation harness
reproducing the paper's tables and figures.

Quickstart
----------
>>> from repro import build_dataset, AnomalyDiagnoser
>>> ds = build_dataset("abilene")
>>> diagnoser = AnomalyDiagnoser().fit(ds.link_traffic, ds.routing)
>>> diagnoses = diagnoser.diagnose(ds.link_traffic)

See ``examples/quickstart.py`` for a narrated walk-through and DESIGN.md
for the experiment index.
"""

from repro._lazy import lazy_exports

# Each name is imported from its module on first access, so importing
# one subpackage (the service, the datasets) does not load the others.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.detectors": ("detectors",),
        "repro.core": (
            "PCA",
            "AnomalyDiagnoser",
            "Diagnosis",
            "DetectionResult",
            "MultiscaleDetector",
            "SPEDetector",
            "SubspaceModel",
            "detectability_thresholds",
            "identify_multi_flow",
            "identify_single_flow",
            "q_threshold",
            "quantify",
        ),
        "repro.datasets": ("Dataset", "build_dataset", "load_dataset", "save_dataset"),
        "repro.exceptions": ("ReproError",),
        "repro.pipeline": (
            "BatchRunner",
            "ComparisonReport",
            "ComparisonRunner",
            "DetectionPipeline",
            "PipelineResult",
            "StreamingDetector",
        ),
        "repro.routing": ("RoutingMatrix", "SPFRouting", "build_routing_matrix"),
        "repro.topology": ("Network", "abilene", "sprint_europe"),
        "repro.traffic": ("AnomalyEvent", "ODFlowGenerator", "TrafficMatrix"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "PCA",
    "SubspaceModel",
    "SPEDetector",
    "DetectionResult",
    "AnomalyDiagnoser",
    "Diagnosis",
    "MultiscaleDetector",
    "q_threshold",
    "quantify",
    "identify_single_flow",
    "identify_multi_flow",
    "detectability_thresholds",
    # pipeline
    "DetectionPipeline",
    "PipelineResult",
    "BatchRunner",
    "ComparisonRunner",
    "ComparisonReport",
    "StreamingDetector",
    # detectors
    "detectors",
    # data layer
    "Dataset",
    "build_dataset",
    "save_dataset",
    "load_dataset",
    "Network",
    "abilene",
    "sprint_europe",
    "SPFRouting",
    "RoutingMatrix",
    "build_routing_matrix",
    "TrafficMatrix",
    "ODFlowGenerator",
    "AnomalyEvent",
    # errors
    "ReproError",
]
