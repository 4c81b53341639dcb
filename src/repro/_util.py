"""Internal helpers shared across the repro package.

These are deliberately small, dependency-light functions for argument
validation and array handling.  They are private to the library (leading
underscore module name); the public API re-exports nothing from here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "as_float_array",
    "as_matrix",
    "as_vector",
    "atomic_pickle_dump",
    "check_fraction",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "ensure_matrix",
    "require",
    "rng_from",
]


def require(condition: bool, message: str, error: type[ReproError] = ReproError) -> None:
    """Raise ``error(message)`` unless ``condition`` holds.

    A tiny guard used at API boundaries so that user mistakes surface as
    library exceptions with readable messages instead of numpy tracebacks.
    """
    if not condition:
        raise error(message)


def as_float_array(values: Iterable[float] | np.ndarray, name: str = "array") -> np.ndarray:
    """Convert ``values`` to a float64 ndarray, rejecting NaN and inf."""
    array = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ReproError(f"{name} must contain only finite values")
    return array


def as_vector(values: Iterable[float] | np.ndarray, name: str = "vector") -> np.ndarray:
    """Convert ``values`` to a finite 1-D float64 vector."""
    array = as_float_array(values, name=name)
    if array.ndim != 1:
        raise ReproError(f"{name} must be 1-dimensional, got shape {array.shape}")
    return array


def as_matrix(values: Iterable[Iterable[float]] | np.ndarray, name: str = "matrix") -> np.ndarray:
    """Convert ``values`` to a finite 2-D float64 matrix."""
    array = as_float_array(values, name=name)
    if array.ndim != 2:
        raise ReproError(f"{name} must be 2-dimensional, got shape {array.shape}")
    return array


def ensure_matrix(
    values,
    dtype: np.dtype | type = np.float64,
    name: str = "matrix",
    error: type[ReproError] = ReproError,
    check_finite: bool = True,
) -> np.ndarray:
    """Validate a ``(t, m)`` measurement block without copying it.

    The single entry point for input coercion on the scoring hot path.
    When ``values`` is already a 2-D ndarray (or ndarray subclass such
    as ``np.memmap``) of ``dtype``, the returned array *shares its
    memory* — ``np.asarray`` only converts, never clones, so memory-
    mapped datasets go through block scoring and
    :meth:`~repro.pipeline.sharded.TemporalCoordinator.fit` zero-copy
    (the out-of-core regression tests pin this with
    ``np.shares_memory``).  Non-conforming inputs (lists, wrong dtype)
    are converted, which necessarily allocates.

    ``check_finite`` scans for NaN/inf — a streaming read over the
    block, no temporary of its size.  Disable only where the caller
    already guarantees finiteness.
    """
    try:
        array = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as err:
        raise error(f"{name} is not numeric: {err}") from err
    if array.ndim != 2:
        raise error(
            f"{name} must be 2-dimensional, got shape {array.shape}"
        )
    if check_finite and not np.all(np.isfinite(array)):
        raise error(f"{name} must contain only finite values")
    return array


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ReproError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ReproError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the open interval (0, 1)."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise ReproError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, an existing generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def unit_norm(vector: np.ndarray, name: str = "vector") -> np.ndarray:
    """Return ``vector`` scaled to unit Euclidean norm.

    Raises :class:`ReproError` for the zero vector, which has no direction.
    """
    vector = as_vector(vector, name=name)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ReproError(f"{name} is the zero vector and cannot be normalized")
    return vector / norm


def pairwise(items: Sequence) -> list[tuple]:
    """Return consecutive pairs ``[(items[0], items[1]), ...]`` of a sequence."""
    return [(items[i], items[i + 1]) for i in range(len(items) - 1)]


def atomic_pickle_dump(path, payload) -> None:
    """Pickle ``payload`` to ``path`` atomically (temp file + rename).

    The write lands in a temporary file in the *same directory* (so the
    rename stays within one filesystem), is fsynced, and replaces the
    destination with ``os.replace`` — a crash at any instant leaves
    either the previous complete file or the new complete file, never a
    torn hybrid.  This is the only way checkpoints are written.
    """
    import os
    import pickle
    import tempfile
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
