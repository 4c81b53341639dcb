"""String-keyed detector registry.

The comparison engine, the CLI and the validation harness all refer to
detectors by name — ``detectors.get("ewma")`` — so adding a method to
every workload in the library is one :func:`register` call.  Factories
receive whatever keyword arguments the caller supplies; every built-in
factory accepts at least ``confidence`` and ``bin_seconds`` so grid
drivers can configure any detector uniformly without knowing which
knobs it actually has.

>>> from repro import detectors
>>> sorted(detectors.available())[:3]
['ar', 'ewma', 'fourier']
>>> detector = detectors.get("ewma", confidence=0.995)
>>> detector.name
'ewma'
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.detectors.base import Detector
from repro.detectors.temporal import (
    ar_detector,
    ewma_detector,
    fourier_detector,
    holt_winters_detector,
    wavelet_detector,
)
from repro.exceptions import ModelError

__all__ = [
    "register",
    "get",
    "get_factory",
    "available",
    "aliases",
    "resolve_names",
]

DetectorFactory = Callable[..., Detector]

_REGISTRY: dict[str, DetectorFactory] = {}
_ALIASES: dict[str, str] = {}


def register(
    name: str,
    factory: DetectorFactory,
    aliases: Iterable[str] = (),
    overwrite: bool = False,
) -> None:
    """Register a detector factory under ``name`` (plus ``aliases``).

    ``factory(**kwargs)`` must return an object satisfying the
    :class:`~repro.detectors.base.Detector` protocol.
    """
    key = _normalize(name)
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise ModelError(f"detector {name!r} is already registered")
    _REGISTRY[key] = factory
    for alias in aliases:
        alias_key = _normalize(alias)
        if not overwrite and (alias_key in _REGISTRY or alias_key in _ALIASES):
            raise ModelError(f"detector alias {alias!r} is already registered")
        _ALIASES[alias_key] = key


def get(name: str, **kwargs) -> Detector:
    """Build a fresh (unfitted) detector registered under ``name``.

    Keyword arguments are forwarded to the factory; every built-in
    accepts ``confidence`` and ``bin_seconds``.
    """
    return get_factory(name)(**kwargs)


def get_factory(name: str) -> DetectorFactory:
    """The factory registered under ``name`` (aliases resolved).

    Grid drivers that fan work out over processes ship the factory
    itself to the workers, so detectors registered at runtime keep
    working under spawn-start ``multiprocessing`` (a re-imported
    registry would only hold the built-ins).
    """
    return _REGISTRY[_resolve_key(name)]


def available() -> tuple[str, ...]:
    """Canonical names of all registered detectors, sorted."""
    return tuple(sorted(_REGISTRY))


def aliases() -> dict[str, str]:
    """Every registered alias mapped to its canonical detector name.

    Contract tests iterate this to assert each alias actually resolves
    to a registered factory.
    """
    return dict(sorted(_ALIASES.items()))


def resolve_names(names: Iterable[str]) -> tuple[str, ...]:
    """Normalize a detector-name list, resolving aliases and de-duping.

    Raises on unknown names; preserves first-seen order.
    """
    resolved: list[str] = []
    for name in names:
        key = _resolve_key(name)
        if key not in resolved:
            resolved.append(key)
    if not resolved:
        raise ModelError("at least one detector name is required")
    return tuple(resolved)


def _normalize(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise ModelError(f"detector name must be a non-empty string, got {name!r}")
    return name.strip().lower()


def _resolve_key(name: str) -> str:
    """Canonical registry key for ``name``; raises on unknown names."""
    key = _normalize(name)
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown detector {name!r}; registered: {known}")
    return key


def _subspace_factory(**kwargs) -> Detector:
    from repro.detectors.subspace import SubspaceDetector

    kwargs.pop("bin_seconds", None)  # the subspace method is bin-agnostic
    return SubspaceDetector(**kwargs)


def _sharded_subspace_factory(**kwargs) -> Detector:
    from repro.detectors.sharded import ShardedSubspaceDetector

    kwargs.pop("bin_seconds", None)  # bin-agnostic, like the subspace method
    return ShardedSubspaceDetector(**kwargs)


def _fleet_subspace_factory(tenants: int = 2, **kwargs) -> Detector:
    """One subspace model per tenant's link group, alarming when the
    worst ``SPE / δ²`` ratio passes a training quantile: the
    ``union``-fused sharded plane with one zone per tenant."""
    from repro.detectors.sharded import ShardedSubspaceDetector

    kwargs.pop("bin_seconds", None)  # bin-agnostic, like the subspace method
    detector = ShardedSubspaceDetector(
        num_zones=tenants, fusion="union", **kwargs
    )
    detector.name = "fleet-subspace"
    return detector


def _streaming_subspace_factory(**kwargs) -> Detector:
    from repro.detectors.streaming import StreamingSubspaceDetector

    kwargs.pop("bin_seconds", None)  # bin-agnostic, like the subspace method
    return StreamingSubspaceDetector(**kwargs)


register("subspace", _subspace_factory, aliases=("spe", "pca"))
register(
    "sharded-subspace",
    _sharded_subspace_factory,
    aliases=("spatial-subspace", "zoned-subspace"),
)
register(
    "fleet-subspace",
    _fleet_subspace_factory,
    aliases=("multi-tenant-subspace", "tenant-subspace"),
)
register(
    "streaming-subspace",
    _streaming_subspace_factory,
    aliases=("online-subspace", "incremental-subspace"),
)
register("ewma", ewma_detector)
register("fourier", fourier_detector)
register("ar", ar_detector)
register("holt-winters", holt_winters_detector, aliases=("holtwinters",))
register("wavelet", wavelet_detector)
