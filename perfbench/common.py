"""Paths, child-process plumbing and readers shared by the benchmark.

Every process the benchmark starts gets the same environment: the
checkout's ``src`` on ``PYTHONPATH`` and every BLAS/OpenMP thread pool
pinned to one thread, so a 2-core host measures the program rather than
the scheduler.  Children talk to the parent through one JSON object per
line on their standard output and wait for a line on standard input
before they exit, which gives the parent a window to read the child's
``/proc`` status (``VmHWM``) while the process is still alive.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Thread-pool variables pinned to 1 in every child process.
PINNED_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent

#: The one clock every process of a run shares (CLOCK_MONOTONIC on Linux).
clock_ns = time.perf_counter_ns


def checkout_root() -> Path:
    """The directory the benchmark runs from (the program's checkout)."""
    return Path.cwd()


def source_dir() -> Path:
    return checkout_root() / "src"


def work_root() -> Path:
    """Scratch space inside the checkout (listed in ``.gitignore``)."""
    return checkout_root() / ".perfbench_work"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREAD_ENV)
    env["PYTHONPATH"] = str(source_dir())
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def thread_env() -> dict[str, str | None]:
    """The thread-pool variables as this process sees them."""
    return {name: os.environ.get(name) for name in PINNED_THREAD_ENV}


# ----------------------------------------------------------------------
def read_vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                kib = int(line.split()[1])
                return kib / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class Child:
    """A child Python process speaking line-delimited JSON.

    ``started_ns`` is taken immediately before the process is spawned;
    it is the origin of every set-up time the benchmark reports.  With
    ``cpu`` the child is pinned to that CPU as soon as it exists.
    """

    def __init__(self, argv: list[str], cwd: Path | None = None,
                 cpu: int | None = None) -> None:
        self.started_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=str(cwd or checkout_root()),
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_message(self, timeout: float = 120.0) -> dict:
        """Next JSON line from the child; raises if it died first."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("child sent no message in time") from None
        if line is None:
            code = self.proc.wait(timeout=30)
            raise RuntimeError(f"child exited with code {code}")
        return json.loads(line)

    def read_ready(self, timeout: float = 170.0) -> tuple[dict, float]:
        """First message and the seconds from spawn until it arrived."""
        message = self.read_message(timeout)
        return message, (clock_ns() - self.started_ns) / 1e9

    def _pump(self) -> None:
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith("{"):
                self._lines.put(line)
        self._lines.put(None)

    def send(self, line: str) -> None:
        """One line to the child's standard input."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb(self.proc.pid)

    def release(self, timeout: float = 60.0) -> int:
        """Let the child exit (it waits for a stdin line) and reap it."""
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        return self.wait(timeout)

    def wait(self, timeout: float = 60.0) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.wait(30)


def announce(message: dict) -> None:
    """Child side: one JSON line to the parent."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def wait_for_release() -> None:
    """Child side: block until the parent allows the exit."""
    sys.stdin.readline()


# ----------------------------------------------------------------------
def tree_sha256(directory: Path, relative_to: Path) -> str:
    """Hash of every ``.py`` file under ``directory``, names included."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(relative_to)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, workload: str) -> dict:
    """What produced a result: program, harness, inputs and machine."""
    import numpy
    import scipy

    root = checkout_root()
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "source_sha256": tree_sha256(source_dir(), root),
        "harness_sha256": tree_sha256(BENCH_DIR, BENCH_DIR.parent),
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        "parent_thread_env": thread_env(),
    }
