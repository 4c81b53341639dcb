"""Host-speed calibration: a fixed reference kernel timed beside the program.

On the 2-vCPU reference VM the speed of a core moves by up to 2x in
phases that last seconds to a minute (numpy and JSON work slow down
together; a tight pure-Python loop barely moves), and which phase a run
lands in decided most of the spread between runs.  So every timed slice
of a run is bracketed by runs of a fixed reference kernel on the same
CPU as the process under test, and a time is reported as it would read
with the kernel at its reference time::

    scale = kernel time measured around the slice / REFERENCE_NS
    reported time = measured time / scale
    reported rate = measured rate * scale

The kernel does not touch the program under test, so a change to the
program moves the reported figures and a change of host speed cancels.
Its parts resemble the workloads' own work: ``numpy`` is small dense
linear algebra on a week-sized block (the offline workload's kernel),
``json`` round-trips a 50-row block of link counts (the HTTP workloads
add it to ``numpy``).  Measured values are kept beside the scaled ones
in every result record.

CPU placement: with two or more CPUs the process under test and the
calibrator share the last CPU of the affinity set and the generator
(this process) takes the first, so the kernel runs where the program
runs.

Usage as a calibrator process: ``python3 perfbench/speed.py PARTS``
(comma-separated), then one line on standard input per measurement;
each is answered with ``{"kernel_ns": N}``.  ``exit``, an empty line
or the end of input ends it.
"""

from __future__ import annotations

import json
import os
import sys
import time

clock = time.perf_counter_ns

#: Reference time of each kernel part: its median on the reference VM in
#: a fast phase.  Only the ratio of measured to reference time is used.
REFERENCE_NS = {"numpy": 20_000_000, "json": 22_000_000}

HTTP_PARTS = ("numpy", "json")
OFFLINE_PARTS = ("numpy",)

_inputs: dict = {}


def _setup():
    if not _inputs:
        import numpy as np

        rng = np.random.default_rng(20040830)
        _inputs["block"] = rng.standard_normal((1008, 49))
        _inputs["square"] = rng.standard_normal((49, 49))
        _inputs["rows"] = (rng.standard_normal((50, 49)) * 1e7).tolist()
    return _inputs


def _numpy_part() -> None:
    import numpy as np

    inputs = _setup()
    block, square = inputs["block"], inputs["square"]
    for _ in range(40):
        product = block @ square
        np.sqrt(np.abs(product), out=product)
        product.sum(axis=1)
        np.linalg.eigh(square @ square.T)


def _json_part() -> None:
    rows = _setup()["rows"]
    for _ in range(10):
        json.loads(json.dumps({"rows": rows}))


_PARTS = {"numpy": _numpy_part, "json": _json_part}


def kernel_ns(parts) -> int:
    """Run the reference kernel once; its wall time in ns."""
    _setup()
    start = clock()
    for part in parts:
        _PARTS[part]()
    return clock() - start


def reference_ns(parts) -> int:
    return sum(REFERENCE_NS[part] for part in parts)


def scale(parts, *measured_ns: int) -> float:
    """Host slowness around a slice: mean kernel time / reference time."""
    return sum(measured_ns) / len(measured_ns) / reference_ns(parts)


# ----------------------------------------------------------------------
def placement() -> tuple[int, int]:
    """``(generator CPU, CPU of the process under test)``."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


#: Read once, before the generator pins itself to its CPU.
GENERATOR_CPU, PROGRAM_CPU = placement()


class Calibrator:
    """A calibrator process pinned to the CPU of the process under test."""

    def __init__(self, parts, cpu: int) -> None:
        import common

        self.parts = tuple(parts)
        self.child = common.Child(
            [str(common.BENCH_DIR / "speed.py"), ",".join(self.parts)], cpu=cpu
        )
        try:
            self.child.read_message(timeout=60)
            # The first runs warm caches and allocator; they are not kept.
            for _ in range(3):
                self.measure()
        except BaseException:
            self.child.kill()
            raise

    def measure(self) -> int:
        self.child.send("go")
        return int(self.child.read_message(timeout=60)["kernel_ns"])

    def stop(self) -> None:
        code = self.child.release()
        if code != 0:
            raise RuntimeError(f"calibrator exited with code {code}")

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv: list[str]) -> int:
    import common

    parts = tuple(argv[0].split(","))
    kernel_ns(parts)
    common.announce({"event": "ready", "pid": os.getpid()})
    for line in sys.stdin:
        if not line.strip() or line.strip() == "exit":
            break
        common.announce({"kernel_ns": kernel_ns(parts)})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
