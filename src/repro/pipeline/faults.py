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
* **checkpoint corruption** — :meth:`FaultInjector.corrupt_checkpoint`
  scribbles over the head of a checkpoint file, the corrupt-restore
  scenario.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ValidationError

__all__ = ["FaultInjector", "FaultPlan", "WorkerFault"]

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
    # Checkpoint corruption.
    @staticmethod
    def corrupt_checkpoint(path: str | Path) -> None:
        """Overwrite the head of a checkpoint file with garbage bytes, in
        place (bit rot / a partially recycled block)."""
        path = Path(path)
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.write(os.urandom(min(64, max(1, size))))
