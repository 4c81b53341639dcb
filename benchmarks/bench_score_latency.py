"""Scoring latency: per-row scoring against the chunked kernel.

Every scoring caller — ``SPEDetector.detect``, the streaming tracker,
the service's ``ingest_block`` — gets SPE and alarm flags from
:func:`repro.core.subspace.score_block`, one chunked sweep that never
holds a full ``(t, m)`` residual.  This bench pins its win over scoring
row by row in the unit the always-on service budgets by: **wall-clock
per bin**.

* **unfused** — the per-row sequence the per-module API encourages:
  ``model.spe(row)`` and a Python threshold compare.  Each row is timed
  individually, so the p50/p99 are true per-bin latencies.
* **fused** — ``model.score_block(chunk, threshold)`` over chunks of
  ``CHUNK_ROWS`` rows, SPE and flags from one call; per-bin latency is
  each chunk's wall-clock amortized over its rows.

Acceptance floor: fused must clear **2x** the unfused p50 per-bin
latency.  Also recorded, informational only: the float32 fused latency
and the same fused sweep reading a ``.npy`` memmap zero-copy.

BLAS threading is pinned to one thread per process (set below, before
numpy loads), so the per-bin figures measure the kernel, not the
host's thread count; the artifact's environment block records it.

Run standalone (the CI smoke):  PYTHONPATH=src python
benchmarks/bench_score_latency.py [--smoke]
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

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.detection import SPEDetector
from repro.datasets.io import save_traffic_memmap, traffic_chunks

MIN_PER_BIN_SPEEDUP = 2.0

NUM_LINKS = 64
TRAIN_ROWS = 2048
SCORE_ROWS = 65_536
SMOKE_SCORE_ROWS = 8_192
CHUNK_ROWS = 2048


def _build_world(score_rows: int):
    """A synthetic low-rank-plus-noise ensemble and a fitted detector."""
    rng = np.random.default_rng(421)
    rank = 6
    factors = rng.normal(size=(rank, NUM_LINKS))
    weights = rng.normal(size=(TRAIN_ROWS + score_rows, rank)) * np.array(
        [10.0, 8.0, 6.0, 4.0, 2.0, 1.0]
    )
    traffic = 1e6 + weights @ factors + rng.normal(
        size=(TRAIN_ROWS + score_rows, NUM_LINKS)
    )
    detector = SPEDetector(confidence=0.999).fit(traffic[:TRAIN_ROWS])
    return detector, np.ascontiguousarray(traffic[TRAIN_ROWS:])


def _percentiles(samples: np.ndarray) -> tuple[float, float]:
    return (
        float(np.percentile(samples, 50)),
        float(np.percentile(samples, 99)),
    )


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_latency(score_rows: int = SCORE_ROWS) -> dict:
    """Per-bin latency percentiles and rows/sec of both scoring paths."""
    detector, block = _build_world(score_rows)
    model = detector.model
    threshold = float(detector.threshold)

    # --- unfused: per-row SPE and compare -----------------------------
    unfused_samples = np.empty(score_rows)
    unfused_begin = time.perf_counter()
    alarms_unfused = 0
    for index in range(score_rows):
        row = block[index]
        begin = time.perf_counter()
        flag = float(model.spe(row)) > threshold
        unfused_samples[index] = time.perf_counter() - begin
        alarms_unfused += int(flag)
    unfused_total = time.perf_counter() - unfused_begin

    # --- fused: one chunked score_block sweep -------------------------
    chunk_samples = []
    fused_begin = time.perf_counter()
    alarms_fused = 0
    for start in range(0, score_rows, CHUNK_ROWS):
        chunk = block[start : start + CHUNK_ROWS]
        begin = time.perf_counter()
        scored = model.score_block(chunk, threshold=threshold)
        elapsed = time.perf_counter() - begin
        chunk_samples.append(elapsed / chunk.shape[0])
        alarms_fused += int(np.count_nonzero(scored.flags))
    fused_total = time.perf_counter() - fused_begin
    fused_samples = np.asarray(chunk_samples)

    # Equal-work sanity: both paths flag the same bins before any
    # number is reported.
    if alarms_unfused != alarms_fused:
        raise AssertionError("fused and unfused paths disagree on alarms")

    # --- informational: float32 fused sweep ---------------------------
    model32 = type(model)(model.pca, model.normal_rank)
    model32.dtype = np.dtype(np.float32)
    float32_s = _time(
        lambda: model32.score_block(block, threshold=threshold)
    )

    # --- informational: the same fused sweep over a .npy memmap -------
    with tempfile.TemporaryDirectory() as tmp:
        path = save_traffic_memmap(block, Path(tmp) / "traffic.npy")
        chunks = traffic_chunks(path, chunk_rows=CHUNK_ROWS)
        if not isinstance(next(chunks()), np.memmap):
            raise AssertionError("memmap chunk source returned a copy")
        begin = time.perf_counter()
        for chunk in chunks():
            model.score_block(chunk, threshold=threshold)
        memmap_total = time.perf_counter() - begin

    unfused_p50, unfused_p99 = _percentiles(unfused_samples)
    fused_p50, fused_p99 = _percentiles(fused_samples)
    return {
        "score_rows": score_rows,
        "num_links": NUM_LINKS,
        "chunk_rows": CHUNK_ROWS,
        "unfused_p50_s": unfused_p50,
        "unfused_p99_s": unfused_p99,
        "fused_p50_s": fused_p50,
        "fused_p99_s": fused_p99,
        "unfused_rows_per_s": score_rows / unfused_total,
        "fused_rows_per_s": score_rows / fused_total,
        "per_bin_speedup": unfused_p50 / fused_p50,
        "float32_per_bin_s": float32_s / score_rows,
        "memmap_rows_per_s": score_rows / memmap_total,
    }


def json_payload(stats: dict) -> dict:
    """The machine-readable ``BENCH_score_latency.json`` record."""
    return {
        "benchmark": "score_latency",
        "floor_per_bin_speedup": MIN_PER_BIN_SPEEDUP,
        "grid": {
            "score_rows": int(stats["score_rows"]),
            "num_links": int(stats["num_links"]),
            "chunk_rows": int(stats["chunk_rows"]),
        },
        "per_bin_latency_seconds": {
            "unfused_p50": stats["unfused_p50_s"],
            "unfused_p99": stats["unfused_p99_s"],
            "fused_p50": stats["fused_p50_s"],
            "fused_p99": stats["fused_p99_s"],
        },
        "rows_per_second": {
            "unfused": stats["unfused_rows_per_s"],
            "fused": stats["fused_rows_per_s"],
            "fused_memmap": stats["memmap_rows_per_s"],
        },
        "per_bin_speedup": stats["per_bin_speedup"],
        "informational": {
            "float32_fused_per_bin_seconds": stats["float32_per_bin_s"],
        },
    }


def render(stats: dict) -> str:
    return "\n".join(
        [
            f"scored block: {stats['score_rows']} bins x "
            f"{stats['num_links']} links (chunks of {stats['chunk_rows']})",
            f"unfused per-bin latency: p50 {stats['unfused_p50_s'] * 1e6:8.2f} us   "
            f"p99 {stats['unfused_p99_s'] * 1e6:8.2f} us",
            f"fused per-bin latency:   p50 {stats['fused_p50_s'] * 1e6:8.2f} us   "
            f"p99 {stats['fused_p99_s'] * 1e6:8.2f} us",
            f"throughput: unfused {stats['unfused_rows_per_s']:>10.0f} rows/sec, "
            f"fused {stats['fused_rows_per_s']:>10.0f} rows/sec, "
            f"fused+memmap {stats['memmap_rows_per_s']:>10.0f} rows/sec",
            f"per-bin p50 speedup: {stats['per_bin_speedup']:.1f}x "
            f"(floor {MIN_PER_BIN_SPEEDUP:.0f}x)",
            f"float32 fused per-bin (informational): "
            f"{stats['float32_per_bin_s'] * 1e6:.2f} us",
        ]
    )


def test_score_latency(results_dir):
    from conftest import write_json_result, write_result

    stats = measure_latency(SMOKE_SCORE_ROWS)
    write_result(results_dir, "score_latency", render(stats))
    write_json_result(results_dir, "score_latency", json_payload(stats))
    assert stats["per_bin_speedup"] >= MIN_PER_BIN_SPEEDUP


if __name__ == "__main__":
    from conftest import RESULTS_DIR, write_json_result

    rows = SMOKE_SCORE_ROWS if "--smoke" in sys.argv[1:] else SCORE_ROWS
    results = measure_latency(rows)
    print(render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json_result(RESULTS_DIR, "score_latency", json_payload(results))
    if results["per_bin_speedup"] < MIN_PER_BIN_SPEEDUP:
        raise SystemExit(
            f"FAIL: per-bin speedup {results['per_bin_speedup']:.1f}x "
            f"below {MIN_PER_BIN_SPEEDUP:.0f}x"
        )
    print("OK")
