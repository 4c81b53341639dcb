"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` replaces a function (module attribute, method,
classmethod or staticmethod) with a timing wrapper.  Each call records a
span: its name, start and end on the shared monotonic clock
(``time.perf_counter_ns`` is ``CLOCK_MONOTONIC`` on Linux, so spans from
a server process and request times from the load generator share one
time base), and the span that was open when it began.  Spans stay in
parallel lists until the process dumps them.

Self time is a span's duration minus the part of its interval that its
children cover.  Children may overlap each other (calls from several
threads), so the covered part is the length of the union of the child
intervals clipped to the parent, never their plain sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        stack = self._stack()
        name_id = self._name_id(name)
        with self._lock:
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0)
            self.starts.append(self.clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack().pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.names[self.name_ids[stack[-1]]] if stack else None

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its return
        value reaches ``after(args, kwargs, result, state, index)``,
        which runs once span ``index`` has closed; hooks count work,
        they are not timed.
        """
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            func = static.__func__
        else:
            func = static
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result, state, index)
            return result

        if isinstance(static, classmethod):
            replacement = classmethod(traced)
        elif isinstance(static, staticmethod):
            replacement = staticmethod(traced)
        else:
            replacement = traced
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, static))

    def wrap_path(self, module: str, qualname: str, name: str, **hooks) -> None:
        """:meth:`wrap` by import path: ``("repro.x", "Class.method")``."""
        owner = importlib.import_module(module)
        *parts, attr = qualname.split(".")
        for part in parts:
            owner = getattr(owner, part)
        self.wrap(owner, attr, name, **hooks)

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, static in reversed(self._installed):
            setattr(owner, attr, static)
        self._installed.clear()

    def export(self) -> dict:
        """Plain lists of every recorded span."""
        count = len(self.starts)
        return {
            "names": list(self.names),
            "name_ids": self.name_ids[:count],
            "starts": self.starts[:count],
            "ends": self.ends[:count],
            "parents": self.parents[:count],
        }


# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[lo, hi)`` intervals."""
    total = 0
    current_lo = current_hi = None
    for lo, hi in sorted(pair for pair in intervals if pair[1] > pair[0]):
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


def self_times(starts, ends, parents) -> list[int]:
    """Per-span self time: duration minus the union its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = union_length(
            (max(starts[child], start), min(ends[child], end))
            for child in children.get(index, ())
        )
        result.append(end - start - covered)
    return result


def roots_of(parents) -> list[int]:
    """Top-level ancestor of every span (a parent precedes its child)."""
    roots: list[int] = []
    for index, parent in enumerate(parents):
        roots.append(index if parent < 0 else roots[parent])
    return roots
