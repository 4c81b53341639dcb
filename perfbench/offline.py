"""The process under test for the offline-history workload.

Usage::

    python3 perfbench/offline.py --history H.npy --routing R.npz \
        --seconds S --out OUT [--trace] [--setup-only]

The process memory-maps the history (announcing ``mapped`` once it can
read it: that is the end of its set-up), then repeats the paper's
offline analysis until ``--seconds`` have passed:

1. fit the subspace model on the whole history with
   ``TemporalCoordinator(workers=1).fit``, the fit code service refits
   run;
2. diagnose every row, one week (1008 bins) per
   ``DetectionPipeline(svd_method="gram").detect`` call;
3. read the alarm report: every alarm's ``Diagnosis`` record, one
   week's result at a time.

Each pass starts from a collected heap with the last pass's outputs
released, so every pass times the same work.  The reference kernel of
:mod:`speed` runs before the fit, between fit and detect, and after the
report, so the parent can scale each stage by the host speed around it.  The diagnosing pipeline is fitted once, before the loop, at the rank
the sharded fit chose, so it holds the same model bit for bit (the
parent checks that against a monolithic fit).  With ``--trace`` the
loop runs untraced, then with every layer wrapped, then untraced again;
the traced pass against the mean of the other two gives the tracing
overhead.  Outputs for the reference check go to
``OUT.json`` and ``OUT.npz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import common
import speed
import traffic
from reference import outputs_digest, chunk_outputs, fit_digest

#: One week of 10-minute bins per ``detect`` call: long enough that a
#: timer tick or a page fault does not decide the call's latency.
WEEK_ROWS = 1008
#: The 3σ rule alone picks rank 2 on a 400k-row history with anomalies
#: at the preset density, which leaves almost nothing flagged; the clamp
#: keeps the separation pass running while holding rank >= 3.
MIN_NORMAL_RANK = 3

clock = time.perf_counter_ns


def sharded_fit(history):
    from repro.pipeline.sharded import TemporalCoordinator

    return TemporalCoordinator(workers=1, min_normal_rank=MIN_NORMAL_RANK).fit(history)


def run_loop(history, pipeline, seconds: float) -> dict:
    rows = history.shape[0]
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    iterations = []
    while True:
        # Every pass starts from the same heap: the last pass's outputs
        # are dropped and collected before its clocks start.
        fit = results = report = None
        gc.collect()
        kernel = [speed.kernel_ns(speed.OFFLINE_PARTS)]
        t0 = clock()
        fit = sharded_fit(history)
        t1 = clock()
        kernel.append(speed.kernel_ns(speed.OFFLINE_PARTS))
        results, latencies = [], []
        t2 = clock()
        for start in range(0, rows, WEEK_ROWS):
            a = clock()
            results.append(pipeline.detect(history[start : start + WEEK_ROWS]))
            latencies.append(clock() - a)
        t3 = clock()
        report = []
        for result in results:
            report.extend(result.diagnoses())
        t4 = clock()
        kernel.append(speed.kernel_ns(speed.OFFLINE_PARTS))
        iterations.append(
            {
                "fit_ns": t1 - t0,
                "detect_ns": t3 - t2,
                "report_ns": t4 - t3,
                "latencies_ns": latencies,
                "kernel_ns": kernel,
                "rows": rows,
                "alarms": len(report),
                "fit_digest": fit_digest(fit.detector),
                "digest": outputs_digest(chunk_outputs(results, WEEK_ROWS)),
            }
        )
        if clock() >= deadline:
            break
    return {"iterations": iterations,
            "start_ns": begin, "end_ns": clock(), "last_results": results}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--history", required=True)
    parser.add_argument("--routing", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.datasets.io import open_traffic_memmap

    history = open_traffic_memmap(args.history)
    common.announce({"event": "mapped", "pid": os.getpid(),
                     "thread_env": common.thread_env(), "rows": history.shape[0]})
    if args.setup_only:
        common.wait_for_release()
        return 0

    import numpy as np

    from repro.pipeline import DetectionPipeline

    routing = traffic.load_routing(args.routing)
    first = sharded_fit(history)
    pipeline = DetectionPipeline(
        svd_method="gram", normal_rank=first.detector.normal_rank
    ).fit(history, routing=routing)
    untraced = run_loop(history, pipeline, args.seconds)
    traced = untraced_after = None
    if args.trace:
        from layers import LayerProbe
        from spans import Tracer

        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        traced = run_loop(history, pipeline, args.seconds)
        tracer.restore()
        traced["trace"] = {"spans": tracer.export(), **probe.export()}
        traced.pop("last_results")
        untraced_after = run_loop(history, pipeline, args.seconds)
        untraced_after.pop("last_results")

    outputs = chunk_outputs(untraced.pop("last_results"), WEEK_ROWS)
    model = first.detector
    sharded_flags = model.detect(history).flags
    np.savez(
        args.out + ".npz",
        threshold=np.float64(model.threshold),
        components=model.model.pca.components,
        mean=model.model.pca.mean,
        normal_rank=np.int64(model.normal_rank),
        sharded_alarm_bins=np.nonzero(sharded_flags)[0],
        **outputs,
    )
    with open(args.out + ".json", "w", encoding="utf-8") as handle:
        json.dump({"untraced": untraced, "traced": traced,
                   "untraced_after": untraced_after}, handle)
    common.announce({"event": "done"})
    common.wait_for_release()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
