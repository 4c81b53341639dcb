"""Fixtures shared by the worker-pool tests."""

from multiprocessing import shared_memory

import pytest


class SegmentLog(list):
    """Names of the shared-memory segments a run created."""

    def all_unlinked(self) -> bool:
        for name in self:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            return False
        return True


@pytest.fixture
def force_shared_memory(monkeypatch):
    """``force()`` turns the task runner's fork check off, so its pools
    take the shared-memory transport that non-fork platforms take, and
    returns the :class:`SegmentLog` of every segment the runner then
    creates."""
    from repro.pipeline import supervision

    def force() -> SegmentLog:
        created = SegmentLog()
        share = supervision._share_array

        def recording(array, segments):
            ref = share(array, segments)
            created.append(ref.name)
            return ref

        monkeypatch.setattr(supervision, "_fork_start", lambda: False)
        monkeypatch.setattr(supervision, "_share_array", recording)
        return created

    return force
