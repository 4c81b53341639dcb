"""Deterministic fault injection for the detection plane.

Everything the chaos harness (``repro chaos run``) and the robustness
tests throw at the coordinators comes from here, so a failure observed
in CI replays exactly:

* **worker faults** — a picklable :class:`FaultPlan` of
  :class:`WorkerFault` actions handed to every
  :class:`~repro.pipeline.supervision.SupervisedPool` worker at spawn.
  Each action targets one ``(stage, task, attempt)`` coordinate:
  ``crash`` calls ``os._exit`` mid-task, ``hang`` sleeps past the
  deadline, ``error`` raises inside the kernel.  Keying on the attempt
  number is what makes "crash once, succeed on retry" expressible —
  and what keeps an injected crash from looping forever.
* **chunk-stream faults** — :class:`FaultInjector` wraps a
  ``chunk_source`` with drop / duplicate / delay (reorder) faults,
  emitting ``(start_row, chunk)`` pairs in the resilient indexed
  protocol of :meth:`TemporalCoordinator.fit_stream
  <repro.pipeline.sharded.TemporalCoordinator.fit_stream>`.  Drops are
  once-only by default (``drop_always=False``) so the ``retry`` policy
  genuinely recovers the lost chunk on its second pass.
* **checkpoint corruption** — :meth:`FaultInjector.corrupt_checkpoint`
  truncates or scribbles over a checkpoint file, the torn-write /
  corrupt-restore scenarios.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["CHUNK_FAULTS", "FaultInjector", "FaultPlan", "WorkerFault"]

#: Chunk-stream fault kinds :meth:`FaultInjector.chunk_source` injects.
CHUNK_FAULTS = ("drop", "duplicate", "delay")

_WORKER_ACTIONS = ("crash", "hang", "error")


@dataclass(frozen=True)
class WorkerFault:
    """One injected worker fault at a ``(stage, task, attempt)`` spot.

    ``stage`` is the pool-run label (``"stats"``, ``"moments"``,
    ``"zones"``, ``"tenant-fit"``); ``""`` matches every stage.
    ``attempts`` is how many consecutive attempts the fault fires on, so
    ``attempts=1`` models a transient fault (retry succeeds) and a large
    value models a permanently poisoned task (the ``partial`` policy's
    territory).
    """

    task: int
    action: str = "crash"
    stage: str = ""
    first_attempt: int = 1
    attempts: int = 1
    seconds: float = 3600.0  # hang duration; irrelevant otherwise

    def __post_init__(self) -> None:
        if self.action not in _WORKER_ACTIONS:
            raise ValidationError(
                f"unknown worker fault action {self.action!r}; "
                f"choose from {_WORKER_ACTIONS}"
            )

    def matches(self, stage: str, task: int, attempt: int) -> bool:
        return (
            self.task == task
            and (self.stage == "" or self.stage == stage)
            and self.first_attempt
            <= attempt
            < self.first_attempt + self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of worker faults consulted inside each worker."""

    faults: tuple[WorkerFault, ...] = ()

    def action_for(
        self, stage: str, task: int, attempt: int
    ) -> WorkerFault | None:
        for fault in self.faults:
            if fault.matches(stage, task, attempt):
                return fault
        return None


class FaultInjector:
    """Builder for every fault the chaos/robustness suites inject."""

    # ------------------------------------------------------------------
    # Worker faults.
    @staticmethod
    def kill_worker(
        task: int = 0, stage: str = "", attempts: int = 1
    ) -> FaultPlan:
        """Crash the worker running ``task`` (first ``attempts`` tries)."""
        return FaultPlan(
            faults=(
                WorkerFault(
                    task=task, action="crash", stage=stage, attempts=attempts
                ),
            )
        )

    @staticmethod
    def hang_task(
        task: int = 0,
        stage: str = "",
        attempts: int = 1,
        seconds: float = 3600.0,
    ) -> FaultPlan:
        """Stall ``task`` past any reasonable deadline."""
        return FaultPlan(
            faults=(
                WorkerFault(
                    task=task,
                    action="hang",
                    stage=stage,
                    attempts=attempts,
                    seconds=seconds,
                ),
            )
        )

    @staticmethod
    def fail_task(
        task: int = 0, stage: str = "", attempts: int = 1
    ) -> FaultPlan:
        """Raise inside ``task``'s kernel (clean error, no process death)."""
        return FaultPlan(
            faults=(
                WorkerFault(
                    task=task, action="error", stage=stage, attempts=attempts
                ),
            )
        )

    # ------------------------------------------------------------------
    # Chunk-stream faults.
    @staticmethod
    def chunk_source(
        measurements: np.ndarray,
        chunk_rows: int,
        fault: str | None = None,
        target: int = 1,
        drop_always: bool = False,
    ):
        """A re-iterable chunk source over ``measurements`` with one fault.

        Returns a zero-argument callable yielding ``(start_row, chunk)``
        pairs (the resilient indexed protocol).  ``target`` is the
        ordinal of the chunk the fault hits:

        ``"drop"``
            The target chunk is not yielded.  Once-only by default —
            the next iteration (a ``retry`` pass) delivers it — or on
            every pass with ``drop_always=True`` (the ``partial``
            policy's permanently lost chunk).
        ``"duplicate"``
            The target chunk is yielded twice (exactly-once folding is
            the coordinator's job).
        ``"delay"``
            The target chunk is yielded last instead of in order.
        """
        if fault is not None and fault not in CHUNK_FAULTS:
            raise ValidationError(
                f"unknown chunk fault {fault!r}; choose from {CHUNK_FAULTS}"
            )
        if chunk_rows < 1:
            raise ValidationError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        measurements = np.asarray(measurements)
        starts = list(range(0, measurements.shape[0], chunk_rows))
        state = {"dropped": False}

        def source():
            chunks = [
                (start, measurements[start : start + chunk_rows])
                for start in starts
            ]
            delayed = None
            for ordinal, item in enumerate(chunks):
                if ordinal == target:
                    if fault == "drop" and (
                        drop_always or not state["dropped"]
                    ):
                        state["dropped"] = True
                        continue
                    if fault == "duplicate":
                        yield item
                    elif fault == "delay":
                        delayed = item
                        continue
                yield item
            if delayed is not None:
                yield delayed

        return source

    # ------------------------------------------------------------------
    # Checkpoint corruption.
    @staticmethod
    def corrupt_checkpoint(
        path: str | Path, mode: str = "truncate"
    ) -> None:
        """Damage a checkpoint file in place.

        ``"truncate"`` cuts the file mid-payload (a torn write by a
        non-atomic writer); ``"scribble"`` overwrites the head with
        garbage bytes (bit rot / a partially recycled block).
        """
        path = Path(path)
        size = path.stat().st_size
        if mode == "truncate":
            with path.open("r+b") as handle:
                handle.truncate(max(1, size // 2))
        elif mode == "scribble":
            with path.open("r+b") as handle:
                handle.write(os.urandom(min(64, max(1, size))))
        else:
            raise ValidationError(
                f"unknown corruption mode {mode!r}; "
                "choose 'truncate' or 'scribble'"
            )
