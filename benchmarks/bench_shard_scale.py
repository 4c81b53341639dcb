"""Sharded detection plane: exactness grid + fit fan-out wall clock.

PR 5's performance/exactness contract:

* **Temporal exactness** — a model fitted from merged per-chunk
  sufficient statistics must be *bit-identical* to the monolithic
  ``gram`` fit, for every shard count, worker count and partition
  scheme exercised by the small grid below.  Any mismatch fails the
  bench (and the CI smoke) outright.
* **Temporal scale** — the coordinator/worker engine is gated at
  **>=3x** wall-clock on a tall fit with **4 workers** against a
  single-process fit that builds the whole ``(t, m)`` score matrix
  (:func:`_full_matrix_fit`, the bench's private baseline).  The
  parallel floor is enforced whenever the host can actually run the
  workers concurrently (``cpu_count >= workers``); on smaller hosts the
  measurement is still recorded and the artifact says why enforcement
  was skipped.  The engine's *serial* path (same kernels, one process)
  is additionally gated at **>=1.5x** on every host — a structural
  floor (the tile-fold separation never builds the score matrix) that
  catches regressions even on one core.  The product's own
  single-process fit, ``SPEDetector(svd_method="gram").fit``, folds the
  same tiles as the engine; it is recorded beside the baseline with
  both engine ratios, unfloored.  The stage breakdown (per-worker
  stats/moments seconds, merge, fit, separation) comes from the fastest
  timed serial run.
* **Spatial determinism** — per-zone fits and every fusion mode must
  produce byte-identical fused scores under serial and parallel worker
  layouts; the zone-fit wall clock against the monolithic fit is
  recorded (not gated — the win is architectural, not flops, at these
  sizes).

BLAS threading is pinned to one thread per process (set below, before
numpy loads) so the measured ratio is the sharding win, not thread-count
drift; the pinning is recorded in the artifact's environment block.

Artifacts: ``results/shard_scale.txt`` (human-readable) and
``results/BENCH_shard_scale.json`` (machine-readable: speedups, floors,
enforcement, exactness grid, per-worker timings, thread environment).

Run standalone:  PYTHONPATH=src python benchmarks/bench_shard_scale.py
CI smoke:        PYTHONPATH=src python benchmarks/bench_shard_scale.py --smoke
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

import numpy as np

MIN_PARALLEL_SPEEDUP = 3.0
MIN_SERIAL_ENGINE_SPEEDUP = 1.5
NUM_WORKERS = 4


def _time(fn, repeats: int = 2):
    """Best-of-N wall time of ``fn`` in seconds, and that run's result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, outcome
    return best, result


def _full_matrix_fit(block: np.ndarray, threshold_sigma: float = 3.0):
    """One process, whole matrix: gram PCA, the full-matrix 3σ rule, the
    Q-statistic limit.

    The separation below is the library's pre-tile ``separate_axes``
    body, kept verbatim as the floors' baseline: it projects the whole
    block and holds four ``(t, m)`` arrays at once.  Returns the fitted
    rank and threshold.
    """
    from repro.core.pca import PCA
    from repro.core.qstatistic import q_threshold
    from repro.core.subspace import SubspaceModel

    pca = PCA(method="gram").fit(block)
    m = pca.num_components
    scores = pca.transform(block)
    captured = pca.captured_variance()
    norms = np.linalg.norm(scores, axis=0)
    live = (captured > 0) & (norms > 0)
    safe_norms = np.where(live, norms, 1.0)
    u = scores / safe_norms
    stds = u.std(axis=0)
    live &= stds > 0
    peaks = np.max(np.abs(u - u.mean(axis=0)), axis=0)
    deviations = np.where(live, peaks / np.where(stds > 0, stds, 1.0), 0.0)
    tripped = np.nonzero(deviations >= threshold_sigma)[0]
    rank = int(np.clip(m if not tripped.size else tripped[0], 1, m))
    model = SubspaceModel(pca, rank)
    return rank, q_threshold(model.residual_eigenvalues(), confidence=0.999)


def _tall_block(num_bins: int, num_links: int, seed: int = 20040830):
    rng = np.random.default_rng(seed)
    base = 1e7 * (
        1.5 + np.sin(2.0 * np.pi * np.arange(num_bins) / 144.0)
    )
    scale = rng.uniform(0.5, 2.0, size=num_links)
    return np.abs(
        base[:, None]
        * scale
        * (1.0 + 0.08 * rng.standard_normal((num_bins, num_links)))
    )


# ----------------------------------------------------------------------
# Exactness grid: temporal bit-identity + spatial determinism.


def exactness_grid(num_bins: int = 2048, num_links: int = 24) -> dict:
    """Small temporal+spatial grid; every cell must agree exactly."""
    from repro.pipeline.sharded import (
        FUSION_MODES,
        SpatialCoordinator,
        TemporalCoordinator,
        temporal_fit_matches_monolithic,
    )

    block = _tall_block(num_bins, num_links, seed=7)
    violations: list[str] = []
    cells: list[dict] = []

    reference = None
    for num_shards in (2, 4, 8):
        for workers in (1, 2):
            fit = TemporalCoordinator(
                num_shards=num_shards, workers=workers
            ).fit(block)
            exact = temporal_fit_matches_monolithic(fit, block)
            if reference is None:
                reference = fit
            stable = (
                np.array_equal(
                    fit.pca.components, reference.pca.components
                )
                and fit.detector.threshold == reference.detector.threshold
            )
            cells.append(
                {
                    "mode": "temporal",
                    "num_shards": num_shards,
                    "workers": workers,
                    "exact_match_monolithic": bool(exact),
                    "matches_reference": bool(stable),
                }
            )
            if not exact:
                violations.append(
                    f"temporal shards={num_shards} workers={workers}: "
                    "fit diverged from the monolithic gram fit"
                )
            if not stable:
                violations.append(
                    f"temporal shards={num_shards} workers={workers}: "
                    "fit depends on the worker layout"
                )

    for num_zones in (2, 3):
        for scheme in ("contiguous", "round-robin"):
            serial = SpatialCoordinator(
                num_zones=num_zones, scheme=scheme, workers=1
            ).fit(block)
            parallel = SpatialCoordinator(
                num_zones=num_zones, scheme=scheme, workers=2
            ).fit(block)
            identical = all(
                np.array_equal(
                    serial.model.fused_score(block, fusion),
                    parallel.model.fused_score(block, fusion),
                )
                for fusion in FUSION_MODES
            )
            cells.append(
                {
                    "mode": "spatial",
                    "num_zones": num_zones,
                    "scheme": scheme,
                    "serial_parallel_identical": bool(identical),
                }
            )
            if not identical:
                violations.append(
                    f"spatial zones={num_zones} scheme={scheme}: fused "
                    "scores differ between worker layouts"
                )
    return {
        "num_bins": num_bins,
        "num_links": num_links,
        "cells": cells,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Temporal scale: monolithic single-process fit vs the sharded engine.


def measure_temporal(
    num_bins: int = 393216,
    num_links: int = 48,
    num_shards: int = NUM_WORKERS,
    repeats: int = 2,
) -> dict:
    from repro.core.detection import SPEDetector
    from repro.pipeline.sharded import (
        TemporalCoordinator,
        temporal_fit_matches_monolithic,
    )

    block = _tall_block(num_bins, num_links)

    monolithic_seconds, _ = _time(lambda: _full_matrix_fit(block), repeats)
    product_seconds, _ = _time(
        lambda: SPEDetector(svd_method="gram").fit(block), repeats
    )
    serial_seconds, serial_fit = _time(
        lambda: TemporalCoordinator(
            num_shards=num_shards, workers=1
        ).fit(block),
        repeats,
    )
    parallel_seconds, parallel_fit = _time(
        lambda: TemporalCoordinator(
            num_shards=num_shards, workers=NUM_WORKERS
        ).fit(block),
        repeats,
    )
    for fit in (serial_fit, parallel_fit):
        if not temporal_fit_matches_monolithic(fit, block):
            raise AssertionError(
                "sharded fit diverged from the monolithic gram fit"
            )
    report = serial_fit.report
    return {
        "num_bins": num_bins,
        "num_links": num_links,
        "num_shards": num_shards,
        "workers": NUM_WORKERS,
        "tile_rows": report.tile_rows,
        "monolithic_seconds": monolithic_seconds,
        "product_monolithic_seconds": product_seconds,
        "serial_engine_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "parallel_speedup": monolithic_seconds / parallel_seconds,
        "serial_engine_speedup": monolithic_seconds / serial_seconds,
        "product_parallel_ratio": product_seconds / parallel_seconds,
        "product_serial_engine_ratio": product_seconds / serial_seconds,
        "breakdown_run": "serial",
        "worker_timings": [
            {
                "worker": timing.worker,
                "rows": timing.size,
                "stats_seconds": timing.stats_seconds,
                "moments_seconds": timing.moments_seconds,
            }
            for timing in report.worker_timings
        ],
        "merge_seconds": report.merge_seconds,
        "fit_seconds": report.fit_seconds,
        "separation_seconds": report.separation_seconds,
    }


def measure_spatial(
    num_bins: int = 4096, num_links: int = 256, num_zones: int = 8
) -> dict:
    from repro.core.detection import SPEDetector
    from repro.pipeline.sharded import SpatialCoordinator

    block = _tall_block(num_bins, num_links, seed=11)
    monolithic_seconds, _ = _time(
        lambda: SPEDetector(svd_method="gram").fit(block), repeats=3
    )
    zone_seconds, _ = _time(
        lambda: SpatialCoordinator(
            num_zones=num_zones, workers=1, score_training=False
        ).fit(block),
        repeats=3,
    )
    fit = SpatialCoordinator(num_zones=num_zones, workers=1).fit(block)
    return {
        "num_bins": num_bins,
        "num_links": num_links,
        "num_zones": num_zones,
        "monolithic_seconds": monolithic_seconds,
        "zone_fit_seconds": zone_seconds,
        "zone_fit_speedup": monolithic_seconds / zone_seconds,
        "fuse_seconds": fit.report.fuse_seconds,
        "zone_ranks": list(fit.report.normal_rank),
    }


# ----------------------------------------------------------------------


def measure(smoke: bool = False) -> dict:
    """The full benchmark record (cheaper repeats in smoke mode)."""
    if smoke:
        grid = exactness_grid(num_bins=1024, num_links=16)
        temporal = measure_temporal(
            num_bins=196608, num_links=48, repeats=1
        )
        spatial = measure_spatial(num_bins=2048, num_links=128)
    else:
        grid = exactness_grid()
        temporal = measure_temporal()
        spatial = measure_spatial()
    cpu_count = os.cpu_count() or 1
    parallel_enforced = cpu_count >= temporal["workers"]
    return {
        "benchmark": "shard_scale",
        "smoke": smoke,
        "floors": {
            "temporal_parallel": MIN_PARALLEL_SPEEDUP,
            "temporal_serial_engine": MIN_SERIAL_ENGINE_SPEEDUP,
        },
        "speedup": {
            "temporal_parallel": temporal["parallel_speedup"],
            "temporal_serial_engine": temporal["serial_engine_speedup"],
            "spatial_zone_fit": spatial["zone_fit_speedup"],
        },
        # Recorded, not floored: the engine against the product's own
        # single-process fit, which folds the same canonical tiles.
        "product_ratio": {
            "temporal_parallel": temporal["product_parallel_ratio"],
            "temporal_serial_engine": temporal["product_serial_engine_ratio"],
        },
        "floor_enforced": {
            "temporal_parallel": parallel_enforced,
            "temporal_serial_engine": True,
        },
        "enforcement": {
            "cpu_count": cpu_count,
            "workers": temporal["workers"],
            "reason": (
                "parallel floor enforced"
                if parallel_enforced
                else (
                    f"parallel floor recorded but not enforced: "
                    f"{cpu_count} CPUs cannot run "
                    f"{temporal['workers']} workers concurrently"
                )
            ),
        },
        "wall_clock_seconds": {
            "monolithic_fit": temporal["monolithic_seconds"],
            "product_monolithic_fit": temporal["product_monolithic_seconds"],
            "sharded_fit_serial": temporal["serial_engine_seconds"],
            "sharded_fit_parallel": temporal["parallel_seconds"],
            "spatial_monolithic_fit": spatial["monolithic_seconds"],
            "spatial_zone_fit": spatial["zone_fit_seconds"],
        },
        "grid": grid,
        "temporal": temporal,
        "spatial": spatial,
    }


def check_floors(stats: dict) -> list[str]:
    """Violations (empty = pass): exactness always, floors as enforced."""
    failures = list(stats["grid"]["violations"])
    for key, floor in stats["floors"].items():
        if not stats["floor_enforced"].get(key, True):
            continue
        speedup = stats["speedup"][key]
        if speedup < floor:
            failures.append(
                f"{key} speedup {speedup:.2f}x below the {floor:.1f}x floor"
            )
    return failures


def render(stats: dict) -> str:
    temporal = stats["temporal"]
    spatial = stats["spatial"]
    grid = stats["grid"]
    enforced = stats["floor_enforced"]["temporal_parallel"]
    return "\n".join(
        [
            f"exactness grid: {len(grid['cells'])} cells on "
            f"{grid['num_bins']}x{grid['num_links']}, "
            f"{len(grid['violations'])} violations",
            f"temporal tall fit: {temporal['num_bins']} bins x "
            f"{temporal['num_links']} links, {temporal['num_shards']} "
            f"shards (tile_rows {temporal['tile_rows']})",
            f"full-matrix single-process (floor baseline): "
            f"{temporal['monolithic_seconds']:>8.3f} s",
            f"SPEDetector gram fit (tile fold, recorded): "
            f"{temporal['product_monolithic_seconds']:>8.3f} s  "
            f"(engine 1 worker {temporal['product_serial_engine_ratio']:.1f}x, "
            f"{temporal['workers']} workers "
            f"{temporal['product_parallel_ratio']:.1f}x)",
            f"stage breakdown (serial run): separation "
            f"{temporal['separation_seconds']:.3f} s, fit "
            f"{temporal['fit_seconds']:.4f} s, merge "
            f"{temporal['merge_seconds']:.4f} s",
            f"sharded engine, 1 worker:  "
            f"{temporal['serial_engine_seconds']:>8.3f} s  "
            f"({temporal['serial_engine_speedup']:.1f}x, floor "
            f"{MIN_SERIAL_ENGINE_SPEEDUP:.1f}x)",
            f"sharded engine, {temporal['workers']} workers: "
            f"{temporal['parallel_seconds']:>8.3f} s  "
            f"({temporal['parallel_speedup']:.1f}x, floor "
            f"{MIN_PARALLEL_SPEEDUP:.0f}x"
            + (")" if enforced else "; not enforced on this host)"),
            f"spatial zone fit: {spatial['num_bins']} bins x "
            f"{spatial['num_links']} links into {spatial['num_zones']} "
            f"zones: {spatial['zone_fit_seconds']:.4f} s vs monolithic "
            f"{spatial['monolithic_seconds']:.4f} s "
            f"({spatial['zone_fit_speedup']:.1f}x, recorded)",
        ]
    )


def test_shard_scale(results_dir):
    """Pytest entry: re-runs the bench in a thread-pinned subprocess."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    outcome = subprocess.run(
        [sys.executable, __file__, "--smoke"],
        env=env,
        capture_output=True,
        text=True,
    )
    print(outcome.stdout)
    assert outcome.returncode == 0, outcome.stdout + outcome.stderr
    payload = json.loads(
        (results_dir / "BENCH_shard_scale.json").read_text()
    )
    assert not check_floors(payload)


if __name__ == "__main__":
    import argparse

    from conftest import RESULTS_DIR, write_json_result, write_result

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="cheaper repeats/dimensions; exactness and enforced floors "
        "still apply",
    )
    arguments = parser.parse_args()
    results = measure(smoke=arguments.smoke)
    print(render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(RESULTS_DIR, "shard_scale", render(results))
    path = write_json_result(RESULTS_DIR, "shard_scale", results)
    if not path.exists():
        raise SystemExit("FAIL: JSON artifact missing")
    failures = check_floors(results)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK")
