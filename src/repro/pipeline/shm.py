"""Shared-memory plumbing for worker pools.

A parent parks a large array (or an opaque byte string) in a
:mod:`multiprocessing.shared_memory` block and hands workers its name
and layout; workers attach by name, so a task pickles a few dozen bytes
instead of the array.  The comparison engine shares datasets and fitted
detectors this way, and the sharded fit its traffic matrix on non-fork
platforms.  Everything here stays module-level and picklable, and this
module imports nothing else from the package, so the sharded fit does
not load the comparison engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SharedArray",
    "SharedBlob",
    "attach_array",
    "attach_segment",
    "release",
    "share_array",
    "share_blob",
]


@dataclass(frozen=True)
class SharedArray:
    """Name + layout of a numpy array parked in a shared-memory block."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedBlob:
    """Name + length of an opaque byte string in a shared-memory block."""

    name: str
    size: int


#: Segments this process attached, kept alive so their buffers stay
#: valid for every later task that reads them.
_SEGMENT_CACHE: dict[str, object] = {}


def share_array(array: np.ndarray, segments: list) -> SharedArray:
    """Copy an array into a fresh shared-memory block (parent side)."""
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(
        create=True, size=max(array.nbytes, 1)
    )
    segments.append(segment)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    return SharedArray(segment.name, array.shape, str(array.dtype))


def share_blob(data: bytes, segments: list) -> SharedBlob:
    """Copy opaque bytes into a fresh shared-memory block (parent side)."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=max(len(data), 1))
    segments.append(segment)
    segment.buf[: len(data)] = data
    return SharedBlob(segment.name, len(data))


def attach_segment(name: str):
    """Attach (and cache) a shared-memory block by name (worker side)."""
    from multiprocessing import shared_memory

    segment = _SEGMENT_CACHE.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _SEGMENT_CACHE[name] = segment
    return segment


def attach_array(ref: SharedArray) -> np.ndarray:
    """A read-only view of a shared array (worker side)."""
    segment = attach_segment(ref.name)
    view = np.ndarray(ref.shape, dtype=ref.dtype, buffer=segment.buf)
    # The segment is shared across tasks and workers: a task that
    # mutated its input in place would silently corrupt every later
    # one.  Read-only views turn that into an immediate ValueError.
    view.flags.writeable = False
    return view


def release(segments: list) -> None:
    """Close and unlink every block the parent created."""
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
