"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError`` from their own
code, and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A network topology is malformed or an element lookup failed."""


class RoutingError(ReproError):
    """Route computation failed (disconnected graph, unknown flow, ...)."""


class TrafficError(ReproError):
    """Traffic generation was configured inconsistently."""


class MeasurementError(ReproError):
    """The measurement pipeline received invalid data or configuration."""


class DatasetError(ReproError):
    """A dataset is malformed, inconsistent, or could not be (de)serialized."""


class ModelError(ReproError):
    """A statistical model (PCA, subspace split, detector) was misused."""


class NotFittedError(ModelError):
    """A model method that requires fitting was called before ``fit``."""


class ValidationError(ReproError):
    """An experiment or metric computation was configured inconsistently."""


class SupervisionError(ReproError):
    """A supervised parallel fit lost work it was not allowed to lose.

    Raised when a task exhausts its retry budget under the ``fail-fast``
    or ``retry`` fault policies, or when so much work is lost that no
    model can be fitted at all (even under ``partial``).  Carries the
    :class:`~repro.pipeline.supervision.FaultReport` describing what
    happened as ``report`` when available.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class CheckpointError(ReproError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class FleetError(ReproError):
    """A tenant id or synthetic tenant traffic was misused.

    Raised for tenant ids that are not non-empty strings and for empty
    synthetic tenant traffic (fewer than one row or link).
    """


class ServiceError(ReproError):
    """The always-on detection service was misused or misconfigured."""


class IngestError(ServiceError):
    """One ingested row was rejected (bad shape, bad bin id, bad value).

    ``reason`` is a short machine-readable token (``wrong_width``,
    ``duplicate_bin``, ...) that keys the service's per-reason error
    counter, so every rejection route is observable in ``/metrics``.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason
