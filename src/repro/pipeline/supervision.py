"""The one process pool of the detection plane's parallel grids.

The sharded fit's passes (:mod:`repro.pipeline.sharded`) and the
comparison grid's fit and score stages (:mod:`repro.pipeline.compare`)
fan out through :func:`task_runner`: one worker runs the tasks in
process, in order; more run them on a :class:`SupervisedPool`.
``multiprocessing.Pool`` gives fan-out but no fault semantics: a worker
that dies mid-task poisons the pool, a task that hangs hangs
``pool.map`` forever, and nothing records what went wrong.  The
supervised pool adds:

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

**One fault model.**  A task's own exception is its result, not a
fault: the parent re-raises it with its type, as the in-process path
does, under every policy.  Only a worker's death or a deadline overrun
is a fault, which ``retry`` heals and ``partial`` drops.

Tasks and results travel over per-worker duplex pipes.  The large
arrays a run reads travel once, without a copy: fork-started workers
inherit them, and other start methods attach to shared-memory segments
the runner creates and unlinks.  The fault-free path is benchmarked
against the bare pool in ``benchmarks/bench_fault_overhead.py`` with a
≤10% overhead floor.

Fault injection for tests and the chaos harness rides the same
machinery: a picklable :class:`~repro.pipeline.faults.FaultPlan` is
handed to every worker at spawn, and the worker consults it per
``(stage, task, attempt)`` before running the real kernel (see
:mod:`repro.pipeline.faults`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

import numpy as np

from repro.exceptions import SupervisionError, ValidationError

__all__ = [
    "BACKOFF_MAX_SECONDS",
    "FAULT_POLICIES",
    "FaultReport",
    "PoolRun",
    "SupervisedPool",
    "TaskFault",
    "resolve_arrays",
    "task_runner",
    "worker_count",
]

#: Degraded-mode policies of the supervised fit paths.  They govern
#: faults — worker deaths and deadline overruns; a task's own exception
#: is re-raised under every policy.
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
    kind: str  # "timeout" | "worker_death"
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


def _raised(err: Exception) -> tuple[str, str, bytes | None]:
    """A task's exception as it travels to the parent: its type name,
    its message, and its pickle when it pickles, which carries the
    worker's traceback as a note."""
    err.add_note(
        "raised in a pool worker:\n"
        + "".join(traceback.format_tb(err.__traceback__)).rstrip()
    )
    try:
        blob = pickle.dumps(err)
    except Exception:  # noqa: BLE001 - any failure means "does not travel"
        blob = None
    return type(err).__qualname__, str(err), blob


def _reraise(stage: str, task: int, raised: tuple) -> None:
    """Raise a task's exception in the parent, with its type when its
    pickle loads and as a :class:`SupervisionError` naming it otherwise."""
    name, message, blob = raised
    try:
        error = pickle.loads(blob)
    except Exception:  # noqa: BLE001 - None, a class the parent lacks, or
        error = None  # an __init__ that takes other arguments than args
    if isinstance(error, BaseException):
        raise error
    raise SupervisionError(
        f"{stage or 'pool'} task {task} raised {name}: {message} "
        "(the exception does not pickle, so its type stayed in the worker)"
    )


def _worker_main(conn, fault_plan) -> None:
    """Worker loop: receive ``(stage, task, attempt, fn, payload)``,
    consult the fault plan, run the kernel, send the outcome back: the
    result, or the exception the kernel raised."""
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
                time.sleep(action.seconds)  # "hang"
        try:
            outcome = (task, "ok", fn(payload))
        except Exception as err:  # noqa: BLE001 - the task's own result
            outcome = (task, "raised", _raised(err))
        try:
            conn.send(outcome)
        except Exception as err:  # noqa: BLE001 - the result does not pickle
            conn.send((task, "raised", _raised(err)))


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
        # the runner's zero-copy inheritance).  Not daemonic, so a task
        # may start a pool of its own (a comparison cell whose detector
        # fits its zones in parallel); the pool stops every worker on
        # exit, and a worker whose parent vanished reads EOF and exits.
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, fault_plan),
            name=f"repro-supervised-{worker_id}",
            daemon=False,
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
        ``"stats"`` / ``"moments"`` / ``"zones"``, the comparison grid
        ``"fit"`` / ``"score"``).  When tasks raise, the run still
        resolves every task, then re-raises the exception of the lowest
        raising task, as an in-order loop would raise it.
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
        raised: dict[int, tuple] = {}
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

        def fail_attempt(worker: _Worker, kind: str, detail: str) -> None:
            """Account one failed attempt, replace its worker and
            schedule its retry."""
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
                        )
                        continue
                    task, status, value = message
                    worker.assignment = None
                    if not completed[task]:
                        completed[task] = True
                        resolved += 1
                        if status == "ok":
                            results[task] = value
                        else:
                            raised[task] = value
                else:  # the process sentinel fired: the worker died
                    exitcode = worker.process.exitcode
                    fail_attempt(
                        worker,
                        "worker_death",
                        f"worker exited with code {exitcode}",
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
                    )

        if raised:
            first = min(raised)
            _reraise(stage, first, raised[first])
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


# ----------------------------------------------------------------------
# The task runner: the in-process loop or the pool, and the arrays'
# transport to the pool's workers.


@dataclass(frozen=True)
class SharedArray:
    """Name + layout of a numpy array parked in a shared-memory block."""

    name: str
    shape: tuple[int, ...]
    dtype: str


#: Segments this process attached, kept open so their buffers stay
#: valid for every later task that reads them.
_SEGMENTS: dict[str, object] = {}

#: Fork-start pools inherit the parent's address space copy-on-write,
#: so a run's arrays reach its workers through this module global with
#: zero copies and zero serialization: the runner parks them here just
#: before the pool forks (children snapshot it) and restores the
#: previous value afterwards, so a worker that runs a pool of its own
#: keeps its arrays.
_INHERITED_ARRAYS: tuple[np.ndarray, ...] | None = None


def _share_array(array: np.ndarray, segments: list) -> SharedArray:
    """Copy an array into a fresh shared-memory block (parent side)."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(
        create=True, size=max(array.nbytes, 1)
    )
    segments.append(segment)
    np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
    return SharedArray(segment.name, array.shape, str(array.dtype))


def _attach_array(ref: SharedArray) -> np.ndarray:
    """A read-only view of a shared array (worker side)."""
    from multiprocessing import shared_memory

    segment = _SEGMENTS.get(ref.name)
    if segment is None:
        segment = _SEGMENTS[ref.name] = shared_memory.SharedMemory(
            name=ref.name
        )
    return _read_only(
        np.ndarray(ref.shape, dtype=ref.dtype, buffer=segment.buf)
    )


def _release(segments: list) -> None:
    """Close and unlink every block the parent created."""
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _read_only(array: np.ndarray) -> np.ndarray:
    # The arrays are shared across tasks (and, on the pool, across
    # workers): a task that mutated its input in place would silently
    # corrupt every later one.  Read-only views turn that into an
    # immediate ValueError, identically on every worker layout.
    view = array.view()
    view.flags.writeable = False
    return view


def _fork_start() -> bool:
    return multiprocessing.get_start_method() == "fork"


def worker_count(requested: int | None, tasks: int) -> int:
    """The request (default: one per CPU), at most one worker per task."""
    return min(tasks, requested or os.cpu_count() or 1)


def resolve_arrays(ref) -> tuple[np.ndarray, ...]:
    """The read-only arrays a task reads, from the ``ref`` that
    :func:`task_runner` yielded: the arrays themselves (in process),
    shared-memory segments, or the fork-inherited arrays (``None``)."""
    if ref is None:
        if _INHERITED_ARRAYS is None:  # pragma: no cover - defensive
            raise SupervisionError(
                "worker inherited no arrays; the pool was not fork-started"
            )
        return _INHERITED_ARRAYS
    return tuple(
        _attach_array(item) if isinstance(item, SharedArray) else item
        for item in ref
    )


@contextmanager
def task_runner(
    arrays: Sequence[np.ndarray], workers: int, **pool
) -> Iterator[tuple[object, Callable[..., PoolRun]]]:
    """``(ref, run)`` for fanning tasks out over ``arrays``.

    One worker runs the tasks in process, in order, and a task's
    exception propagates as raised.  More start a
    :class:`SupervisedPool` with the ``pool`` settings, whose workers
    read the arrays without a copy: fork-inherited, or from
    shared-memory segments unlinked when the runner exits.  Tasks carry
    ``ref``, and :func:`resolve_arrays` turns it back into the arrays,
    read-only on every path.  ``run(fn, tasks, stage)`` returns a
    :class:`PoolRun`.
    """
    global _INHERITED_ARRAYS

    arrays = tuple(_read_only(array) for array in arrays)
    if workers <= 1:

        def run_here(fn, tasks, stage=""):
            return PoolRun(
                results=[fn(task) for task in tasks],
                report=FaultReport(tasks=len(tasks), attempts=len(tasks)),
            )

        yield arrays, run_here
        return
    previous = _INHERITED_ARRAYS
    segments: list = []
    try:
        if _fork_start():
            ref = None
            _INHERITED_ARRAYS = arrays
        else:
            ref = tuple(_share_array(array, segments) for array in arrays)
        with SupervisedPool(workers, **pool) as supervised:
            yield ref, supervised.run
    finally:
        _INHERITED_ARRAYS = previous
        _release(segments)
