"""Pipeline throughput: vectorized batch/stream vs per-timestep loop.

The tentpole claim of the pipeline subsystem is that whole-block
diagnosis — SPE, flags, identification, quantification — is a handful
of matrix products, not ``t`` separate passes.  This bench records
timesteps/sec for three drivers over the same fitted model:

* **naive** — the per-timestep sequence the per-module API encourages:
  ``model.spe(row)`` per row, then ``identify_single_flow`` +
  ``quantify`` on each flagged row;
* **pipeline** — one ``DetectionPipeline.detect`` call on the block;
* **stream** — the windowed streaming mode (scoring + identification +
  exponential fold + eigen refresh per window), against the per-arrival
  tracker loop (``IncrementalSubspaceTracker.update`` per row) that the
  window mode replaces.

Acceptance floor: the batched pipeline must clear **5x** the naive
loop's throughput (it typically lands far above).

BLAS threading is pinned to one thread per process (set below, before
numpy loads): on a 2-vCPU host a 49 x 49 ``eigh`` with two OpenBLAS
threads intermittently takes ~16 ms instead of ~0.3 ms for a whole
process, which would make the streaming figures measure the thread
pool, not the code; the artifact's environment block records it.

Run standalone (the CI smoke):  PYTHONPATH=src python
benchmarks/bench_pipeline_throughput.py
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import time

from repro.core.identification import identify_single_flow
from repro.core.quantification import quantify
from repro.pipeline import DetectionPipeline

MIN_SPEEDUP = 5.0


def _build_world():
    from repro.datasets.synthetic import dataset_from_config
    from repro.traffic.workloads import workload_for

    config = workload_for("sprint-1").with_overrides(
        name="bench-throughput",
        num_anomalies=40,
        traffic_seed=90210,
        anomaly_seed=90211,
    )
    return dataset_from_config(config)


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_throughput(dataset=None) -> dict[str, float]:
    """Timesteps/sec of each driver plus the batch-over-naive speedup."""
    if dataset is None:
        dataset = _build_world()
    pipeline = DetectionPipeline(confidence=0.999).fit(
        dataset.link_traffic, routing=dataset.routing
    )
    measurements = dataset.link_traffic
    num_bins = measurements.shape[0]
    model = pipeline.detector.model
    threshold = pipeline.threshold
    directions = dataset.routing.normalized_columns()

    def naive_loop():
        alarms = 0
        for row in measurements:
            spe = float(model.spe(row))
            if spe > threshold:
                identification = identify_single_flow(model, directions, row)
                quantify(model, dataset.routing, row, identification)
                alarms += 1
        return alarms

    def batched():
        return pipeline.detect(measurements).num_alarms

    def streamed():
        total = 0
        for window in pipeline.stream(measurements, window_bins=144):
            total += window.num_alarms
        return total

    def streamed_per_arrival():
        tracker = pipeline.streaming().tracker
        tracker.refresh_interval = 144
        alarms = 0
        for row in measurements:
            _, is_anomalous = tracker.update(row)
            alarms += int(is_anomalous)
        return alarms

    # Equal-work sanity check before timing anything.
    if naive_loop() != batched():
        raise AssertionError("naive loop and pipeline disagree on alarms")

    naive_time = _time(naive_loop)
    batch_time = _time(batched)
    stream_time = _time(streamed)
    arrival_time = _time(streamed_per_arrival)
    return {
        "num_bins": float(num_bins),
        "naive_tps": num_bins / naive_time,
        "pipeline_tps": num_bins / batch_time,
        "stream_tps": num_bins / stream_time,
        "arrival_tps": num_bins / arrival_time,
        "naive_seconds": naive_time,
        "pipeline_seconds": batch_time,
        "stream_seconds": stream_time,
        "arrival_seconds": arrival_time,
        "speedup": naive_time / batch_time,
        "stream_speedup": arrival_time / stream_time,
    }


def json_payload(stats: dict[str, float]) -> dict:
    """The machine-readable ``BENCH_pipeline_throughput.json`` record."""
    return {
        "benchmark": "pipeline_throughput",
        "floor_speedup": MIN_SPEEDUP,
        "grid": {"num_bins": int(stats["num_bins"])},
        "speedup": stats["speedup"],
        "stream_speedup": stats["stream_speedup"],
        "throughput_timesteps_per_second": {
            "naive_loop": stats["naive_tps"],
            "pipeline_batch": stats["pipeline_tps"],
            "stream_windowed": stats["stream_tps"],
            "stream_per_arrival": stats["arrival_tps"],
        },
        "wall_clock_seconds": {
            "naive_loop": stats["naive_seconds"],
            "pipeline_batch": stats["pipeline_seconds"],
            "stream_windowed": stats["stream_seconds"],
            "stream_per_arrival": stats["arrival_seconds"],
        },
    }


def render(stats: dict[str, float]) -> str:
    return "\n".join(
        [
            f"diagnosed block: {int(stats['num_bins'])} timesteps",
            f"naive per-timestep loop:  {stats['naive_tps']:>12.0f} timesteps/sec",
            f"pipeline.detect (batch):  {stats['pipeline_tps']:>12.0f} timesteps/sec",
            f"per-arrival tracker loop: {stats['arrival_tps']:>12.0f} timesteps/sec",
            f"pipeline.stream (144/w):  {stats['stream_tps']:>12.0f} timesteps/sec",
            f"batch speedup over naive loop: {stats['speedup']:.1f}x "
            f"(floor {MIN_SPEEDUP:.0f}x)",
            f"window speedup over per-arrival stream: "
            f"{stats['stream_speedup']:.1f}x",
        ]
    )


def test_pipeline_throughput(results_dir):
    from conftest import write_json_result, write_result

    stats = measure_throughput()
    write_result(results_dir, "pipeline_throughput", render(stats))
    write_json_result(results_dir, "pipeline_throughput", json_payload(stats))
    assert stats["speedup"] >= MIN_SPEEDUP
    # The windowed fold must beat folding the same arrivals one by one.
    assert stats["stream_speedup"] > 1.0


if __name__ == "__main__":
    from conftest import RESULTS_DIR, write_json_result, write_result

    results = measure_throughput()
    print(render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(RESULTS_DIR, "pipeline_throughput", render(results))
    write_json_result(RESULTS_DIR, "pipeline_throughput", json_payload(results))
    if results["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"FAIL: speedup {results['speedup']:.1f}x below {MIN_SPEEDUP:.0f}x"
        )
    print("OK")
