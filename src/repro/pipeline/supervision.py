"""Supervised worker pool for the sharded detection plane.

``multiprocessing.Pool`` gives the coordinators fan-out but no fault
semantics: a worker that dies mid-task poisons the pool, a task that
hangs hangs ``pool.map`` forever, and nothing records what went wrong.
:class:`SupervisedPool` replaces it on the parallel fit paths with the
supervision loop a production detection plane needs:

* **per-task deadlines** — a task that exceeds its deadline is killed
  (the whole worker process, since a stuck numpy kernel cannot be
  interrupted) and the task is retried on a fresh worker;
* **worker-death detection** — each worker's process sentinel is
  multiplexed into the same ``multiprocessing.connection.wait`` call
  that collects results, so a crash (OOM kill, segfault, ``os._exit``)
  is observed immediately, not at join time;
* **bounded retry with exponential backoff + jitter** — every task gets
  ``1 + max_retries`` attempts; re-dispatch waits
  ``min(BACKOFF_MAX_SECONDS, backoff_base·2^(attempt-1))`` scaled by a
  jitter draw from a fixed seed, so storms of correlated failures
  spread out but test runs stay deterministic;
* **task reassignment** — a retried task runs on any surviving (or
  freshly respawned) worker, never pinned to the one that failed;
* a typed :class:`FaultReport` — per-task attempts, timeouts, retries,
  reassignments, worker deaths, and permanently lost tasks — that the
  coordinators attach to their :class:`~repro.pipeline.sharded.ShardReport`.

Tasks and results travel over per-worker duplex pipes; the traffic
matrix itself still travels by fork inheritance or shared memory
exactly as before (see :mod:`repro.pipeline.sharded`), so the
supervised pool adds only control-plane overhead — the fault-free path
is benchmarked against the bare pool in
``benchmarks/bench_fault_overhead.py`` with a ≤10% overhead floor.

Fault injection for tests and the chaos harness rides the same
machinery: a picklable :class:`~repro.pipeline.faults.FaultPlan` is
handed to every worker at spawn, and the worker consults it per
``(stage, task, attempt)`` before running the real kernel (see
:mod:`repro.pipeline.faults`).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.exceptions import SupervisionError, ValidationError

__all__ = [
    "BACKOFF_MAX_SECONDS",
    "FAULT_POLICIES",
    "FaultReport",
    "PoolRun",
    "SupervisedPool",
    "TaskFault",
]

#: Degraded-mode policies of the supervised fit paths.
#:
#: ``fail-fast``
#:     No retries; the first lost task aborts the fit.
#: ``retry``
#:     Up to ``max_retries`` re-dispatches per task (backoff + jitter);
#:     a task that exhausts its budget aborts the fit.  A retried-to-
#:     success run is bit-identical to the fault-free run.
#: ``partial``
#:     Same retry budget, but exhausted tasks are *dropped*: the fit
#:     proceeds from the surviving sufficient statistics and records
#:     the ``coverage`` fraction.
FAULT_POLICIES = ("fail-fast", "retry", "partial")

#: Cap of one retry delay before jitter, in seconds.
BACKOFF_MAX_SECONDS = 2.0

#: Exit code a worker uses for an injected crash (distinguishable from
#: a real segfault's negative signal code in the fault report detail).
_INJECTED_CRASH_EXIT = 17


@dataclass(frozen=True)
class TaskFault:
    """One observed fault on one task attempt."""

    task: int
    attempt: int
    kind: str  # "timeout" | "worker_death" | "error"
    worker: int
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "attempt": self.attempt,
            "kind": self.kind,
            "worker": self.worker,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FaultReport:
    """Typed account of everything that went wrong (or didn't).

    Attached to :class:`~repro.pipeline.sharded.ShardReport` by the
    coordinators and merged across the stats/moments passes.  A clean
    run has ``attempts == tasks`` and empty ``faults``.
    """

    tasks: int = 0
    attempts: int = 0
    timeouts: int = 0
    retries: int = 0
    reassignments: int = 0
    worker_deaths: int = 0
    lost_tasks: tuple[int, ...] = ()
    faults: tuple[TaskFault, ...] = ()

    @property
    def clean(self) -> bool:
        """True when every task succeeded on its first attempt."""
        return not self.faults and not self.lost_tasks

    def merge(self, other: "FaultReport") -> "FaultReport":
        """Combine the accounts of two pool runs (stats + moments)."""
        return FaultReport(
            tasks=self.tasks + other.tasks,
            attempts=self.attempts + other.attempts,
            timeouts=self.timeouts + other.timeouts,
            retries=self.retries + other.retries,
            reassignments=self.reassignments + other.reassignments,
            worker_deaths=self.worker_deaths + other.worker_deaths,
            lost_tasks=self.lost_tasks + other.lost_tasks,
            faults=self.faults + other.faults,
        )

    def to_json(self) -> dict:
        return {
            "tasks": self.tasks,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reassignments": self.reassignments,
            "worker_deaths": self.worker_deaths,
            "lost_tasks": list(self.lost_tasks),
            "faults": [fault.to_json() for fault in self.faults],
        }


@dataclass(frozen=True)
class PoolRun:
    """Outcome of one :meth:`SupervisedPool.run` call.

    ``results[i]`` is task ``i``'s return value, or ``None`` when the
    task was permanently lost (``i`` then appears in
    ``report.lost_tasks``; the caller's fault policy decides whether
    that is fatal).
    """

    results: list
    report: FaultReport


def _worker_main(conn, worker_id: int, fault_plan) -> None:
    """Worker loop: receive ``(stage, task, attempt, fn, payload)``,
    consult the fault plan, run the kernel, send the outcome back."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            return
        if message is None:
            return
        stage, task, attempt, fn, payload = message
        if fault_plan is not None:
            action = fault_plan.action_for(stage, task, attempt)
            if action is not None:
                if action.action == "crash":
                    os._exit(_INJECTED_CRASH_EXIT)
                if action.action == "hang":
                    time.sleep(action.seconds)
                elif action.action == "error":
                    conn.send((task, attempt, "error", "injected task error"))
                    continue
        try:
            result = fn(payload)
        except BaseException as err:  # noqa: BLE001 - report, don't die
            conn.send(
                (task, attempt, "error", f"{type(err).__name__}: {err}")
            )
        else:
            conn.send((task, attempt, "ok", result))


def backoff_delay(
    attempt: int, base: float, jitter: float, rng: random.Random
) -> float:
    """Seconds to wait before re-running after failed attempt ``attempt``:
    ``min(BACKOFF_MAX_SECONDS, base·2^(attempt-1)) · (1 + jitter·u)``
    with ``u`` drawn from ``rng``."""
    delay = min(BACKOFF_MAX_SECONDS, base * (2 ** (attempt - 1)))
    return delay * (1.0 + jitter * rng.random())


class _Worker:
    """One supervised worker process plus its control pipe."""

    def __init__(self, worker_id: int, fault_plan) -> None:
        self.id = worker_id
        # The platform's default start method (fork on Linux, matching
        # the coordinators' zero-copy inheritance).
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, worker_id, fault_plan),
            name=f"repro-supervised-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        # (task, attempt, deadline | None) while busy, else None.
        self.assignment: tuple[int, int, float | None] | None = None

    @property
    def sentinel(self):
        return self.process.sentinel

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
        self.process.join()
        self.conn.close()

    def stop(self) -> None:
        """Ask the worker to exit; escalate to kill if it doesn't."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join()
        self.conn.close()


class SupervisedPool:
    """Deadline/retry/death-aware replacement for ``Pool.map``.

    Use as a context manager; workers are spawned at ``__enter__`` and
    torn down at ``__exit__``.  One pool may serve several :meth:`run`
    calls (the coordinators reuse it across the stats and moments
    passes), with workers killed by faults respawned transparently.

    Parameters
    ----------
    workers:
        Worker processes to keep alive.
    deadline:
        Per-task wall-clock budget in seconds; ``None`` disables
        deadlines (a hung worker then hangs the run — required to be
        set when the fault plan injects hangs).
    max_retries:
        Additional attempts after the first, per task.
    backoff_base, jitter:
        Retry delay parameters: attempt ``a``'s re-dispatch waits
        ``min(BACKOFF_MAX_SECONDS, backoff_base·2^(a-1)) · (1 + jitter·u)``
        with ``u`` drawn from ``random.Random(0)``, so a run's delays
        are deterministic.
    fault_plan:
        Optional :class:`~repro.pipeline.faults.FaultPlan` handed to
        every worker (fault injection for tests/chaos).
    """

    def __init__(
        self,
        workers: int,
        deadline: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        jitter: float = 0.25,
        fault_plan=None,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if deadline is not None and deadline <= 0:
            raise ValidationError(f"deadline must be > 0, got {deadline}")
        if max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if fault_plan is not None and deadline is None:
            if any(f.action == "hang" for f in fault_plan.faults):
                raise ValidationError(
                    "a fault plan that injects hangs requires a deadline "
                    "(otherwise the hang is unbounded)"
                )
        self.workers = int(workers)
        self.deadline = deadline
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.jitter = float(jitter)
        self.fault_plan = fault_plan
        self._rng = random.Random(0)
        self._pool: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._entered = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "SupervisedPool":
        self._entered = True
        while len(self._pool) < self.workers:
            self._spawn()
        return self

    def __exit__(self, *exc_info) -> None:
        self._entered = False
        for worker in list(self._pool.values()):
            worker.stop()
        self._pool.clear()

    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_worker_id, self.fault_plan)
        self._next_worker_id += 1
        self._pool[worker.id] = worker
        return worker

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        stage: str = "",
    ) -> PoolRun:
        """Run ``fn`` over ``payloads``; return ordered results + report.

        ``fn`` must be a picklable module-level callable.  ``stage``
        labels the run for fault-plan matching (the coordinators use
        ``"stats"`` / ``"moments"`` / ``"zones"``).
        """
        if not self._entered:
            raise SupervisionError(
                "SupervisedPool must be entered (use it as a context "
                "manager) before run()"
            )
        payloads = list(payloads)
        total = len(payloads)
        results: list = [None] * total
        completed = [False] * total
        faults: list[TaskFault] = []
        lost: list[int] = []
        attempts = timeouts = retries = reassignments = deaths = 0
        resolved = 0

        pending: deque[tuple[int, int]] = deque(
            (task, 1) for task in range(total)
        )
        # (due_monotonic, task, attempt) awaiting their backoff delay.
        delayed: list[tuple[float, int, int]] = []

        def schedule_retry(task: int, attempt: int) -> None:
            nonlocal retries, resolved
            if attempt >= 1 + self.max_retries:
                lost.append(task)
                resolved += 1
                return
            retries += 1
            due = time.monotonic() + backoff_delay(
                attempt, self.backoff_base, self.jitter, self._rng
            )
            delayed.append((due, task, attempt + 1))

        def dispatch(worker: _Worker, task: int, attempt: int) -> bool:
            nonlocal attempts
            try:
                worker.conn.send((stage, task, attempt, fn, payloads[task]))
            except (BrokenPipeError, OSError):
                # The worker died while idle; replace it and let the
                # caller re-dispatch elsewhere.
                self._pool.pop(worker.id, None)
                worker.kill()
                self._spawn()
                return False
            attempts += 1
            deadline = (
                None
                if self.deadline is None
                else time.monotonic() + self.deadline
            )
            worker.assignment = (task, attempt, deadline)
            return True

        def fail_attempt(
            worker: _Worker, kind: str, detail: str, respawn: bool
        ) -> None:
            """Account one failed attempt and schedule its retry."""
            nonlocal timeouts, deaths, reassignments
            task, attempt, _ = worker.assignment
            worker.assignment = None
            faults.append(
                TaskFault(
                    task=task,
                    attempt=attempt,
                    kind=kind,
                    worker=worker.id,
                    detail=detail,
                )
            )
            if kind == "timeout":
                timeouts += 1
            elif kind == "worker_death":
                deaths += 1
            if respawn:
                self._pool.pop(worker.id, None)
                worker.kill()
                self._spawn()
                reassignments += 1
            schedule_retry(task, attempt)

        while resolved < total:
            now = time.monotonic()
            if delayed:
                due_now = [item for item in delayed if item[0] <= now]
                for item in due_now:
                    delayed.remove(item)
                    pending.append((item[1], item[2]))
            idle = [w for w in self._pool.values() if w.assignment is None]
            while pending and idle:
                task, attempt = pending.popleft()
                worker = idle.pop()
                if not dispatch(worker, task, attempt):
                    pending.appendleft((task, attempt))
                    idle = [
                        w
                        for w in self._pool.values()
                        if w.assignment is None
                    ]

            busy = [w for w in self._pool.values() if w.assignment is not None]
            if not busy:
                if pending:
                    continue  # a dispatch failed; fresh workers are up
                if delayed:
                    next_due = min(item[0] for item in delayed)
                    time.sleep(max(0.0, next_due - time.monotonic()))
                    continue
                break  # nothing in flight, nothing queued: all resolved

            wait_until: float | None = None
            for worker in busy:
                deadline = worker.assignment[2]
                if deadline is not None:
                    wait_until = (
                        deadline
                        if wait_until is None
                        else min(wait_until, deadline)
                    )
            for due, _, _ in delayed:
                wait_until = due if wait_until is None else min(wait_until, due)
            timeout = (
                None
                if wait_until is None
                else max(0.0, wait_until - time.monotonic())
            )
            watch: dict = {}
            for worker in busy:
                watch[worker.conn] = worker
                watch[worker.sentinel] = worker
            ready = mp_connection.wait(list(watch), timeout=timeout)

            handled: set[int] = set()
            for handle in ready:
                worker = watch[handle]
                if worker.id in handled or worker.assignment is None:
                    continue
                handled.add(worker.id)
                if handle is worker.conn:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        fail_attempt(
                            worker,
                            "worker_death",
                            "result pipe closed mid-task",
                            respawn=True,
                        )
                        continue
                    task, attempt, status, value = message
                    worker.assignment = None
                    if status == "ok":
                        if not completed[task]:
                            completed[task] = True
                            results[task] = value
                            resolved += 1
                    else:
                        faults.append(
                            TaskFault(
                                task=task,
                                attempt=attempt,
                                kind="error",
                                worker=worker.id,
                                detail=str(value),
                            )
                        )
                        schedule_retry(task, attempt)
                else:  # the process sentinel fired: the worker died
                    exitcode = worker.process.exitcode
                    fail_attempt(
                        worker,
                        "worker_death",
                        f"worker exited with code {exitcode}",
                        respawn=True,
                    )

            now = time.monotonic()
            for worker in list(self._pool.values()):
                if worker.assignment is None or worker.id in handled:
                    continue
                deadline = worker.assignment[2]
                if deadline is not None and now >= deadline:
                    fail_attempt(
                        worker,
                        "timeout",
                        f"task exceeded its {self.deadline:.3g}s deadline",
                        respawn=True,
                    )

        report = FaultReport(
            tasks=total,
            attempts=attempts,
            timeouts=timeouts,
            retries=retries,
            reassignments=reassignments,
            worker_deaths=deaths,
            lost_tasks=tuple(sorted(lost)),
            faults=tuple(faults),
        )
        return PoolRun(results=results, report=report)


def raise_if_lost(
    run: PoolRun, what: str, policy: str
) -> None:
    """Raise :class:`SupervisionError` when lost tasks are fatal.

    Under ``partial`` lost tasks are tolerated (the caller drops their
    shards and records coverage); under ``fail-fast``/``retry`` any
    loss aborts the fit.
    """
    if policy == "partial" or not run.report.lost_tasks:
        return
    lost = ", ".join(str(task) for task in run.report.lost_tasks)
    raise SupervisionError(
        f"{what}: task(s) {lost} exhausted their retry budget under the "
        f"{policy!r} fault policy "
        f"({run.report.worker_deaths} worker death(s), "
        f"{run.report.timeouts} timeout(s))",
        report=run.report,
    )


def resolve_policy(policy: str) -> str:
    """Validate a fault policy."""
    if policy not in FAULT_POLICIES:
        raise ValidationError(
            f"unknown fault policy {policy!r}; "
            f"choose from {FAULT_POLICIES}"
        )
    return policy
