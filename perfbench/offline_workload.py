"""The ``offline-history`` workload: the paper's offline analysis.

The parent writes a seeded ~400k x 49 history as a ``.npy`` file, starts
:mod:`offline` (which memory-maps it) several times to time set-up, lets
the last child run its timed loop, and then checks the child's outputs
against a monolithic reference computed here:

* the sharded fit's rank, threshold, mean and components equal
  ``DetectionPipeline(svd_method="gram")``'s bit for bit, in every
  iteration;
* every iteration's whole-history diagnosis hashes to the reference's;
* the sharded model and the monolithic one flag the same bins.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

import analysis
import common
import speed
import stats
import traffic
from reference import outputs_digest, chunk_outputs, fit_digest, mismatched_bins

HISTORY_CHUNKS = 25
CHUNK_BINS = 16_128
SETUP_REPEATS = 3


def _launch(argv: list[str]) -> tuple[common.Child, float, dict]:
    child = common.Child([str(common.BENCH_DIR / "offline.py"), *argv], cpu=speed.PROGRAM_CPU)
    try:
        mapped, setup_s = child.read_ready()
    except BaseException:
        child.kill()
        raise
    return child, setup_s, mapped


def run_offline_history(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from offline import WEEK_ROWS, MIN_NORMAL_RANK

    history_path = work / "history.npy"
    routing = traffic.write_history(seed, history_path, HISTORY_CHUNKS, CHUNK_BINS)
    traffic.save_routing(routing, work / "routing.npz")
    base = ["--history", str(history_path), "--routing", str(work / "routing.npz")]

    repeats = 1 if trace else SETUP_REPEATS
    setups = []
    for _ in range(repeats - 1):
        child, setup_s, _ = _launch(base + ["--setup-only"])
        setups.append(setup_s)
        child.release()
    out = str(work / "offline")
    argv = base + ["--seconds", str(seconds), "--out", out] + (["--trace"] if trace else [])
    child, setup_s, mapped = _launch(argv)
    setups.append(setup_s)
    try:
        child.read_message(timeout=170)
        rss = child.peak_rss_mb()
    finally:
        code = child.release()
    if code != 0:
        raise RuntimeError(f"offline child exited with code {code}")
    with open(out + ".json", encoding="utf-8") as handle:
        runs = json.load(handle)
    saved = dict(np.load(out + ".npz"))

    # The reference: one monolithic gram fit with the same separation rule.
    from repro.datasets.io import open_traffic_memmap
    from repro.pipeline import DetectionPipeline

    history = open_traffic_memmap(history_path)
    mono = DetectionPipeline(svd_method="gram", min_normal_rank=MIN_NORMAL_RANK).fit(
        history, routing=routing
    )
    reference_fit = fit_digest(mono.detector)
    reference = chunk_outputs(
        [mono.detect(history[s : s + WEEK_ROWS]) for s in range(0, history.shape[0], WEEK_ROWS)],
        WEEK_ROWS,
    )
    reference_digest = outputs_digest(reference)
    rows = history.shape[0]

    attempted = failed = 0
    phases = [runs[key] for key in ("untraced", "traced", "untraced_after") if runs[key]]
    for phase in phases:
        for iteration in phase["iterations"]:
            attempted += 1 + rows
            failed += iteration["fit_digest"] != reference_fit
            if iteration["digest"] != reference_digest:
                failed += rows
    saved_outputs = {key: saved[key] for key in reference}
    saved_bad = mismatched_bins(saved_outputs, reference)
    failed += saved_bad
    attempted += rows
    sharded_vs_mono = len(set(saved["sharded_alarm_bins"].tolist())
                          ^ set(reference["alarm_bins"].tolist()))
    attempted += rows
    failed += sharded_vs_mono
    same_model = bool(
        saved["threshold"] == mono.threshold
        and np.array_equal(saved["components"], mono.detector.model.pca.components)
        and int(saved["normal_rank"]) == mono.normal_rank
    )
    if not same_model:
        failed += 1
    attempted += 1

    details = {
        "history_rows": rows,
        "normal_rank": int(saved["normal_rank"]),
        "alarms_per_iteration": phases[0]["iterations"][0]["alarms"],
        "reference": {"same_model_bitwise": same_model,
                      "saved_mismatched_bins": saved_bad,
                      "sharded_vs_monolithic_flag_differences": sharded_vs_mono},
        "child_thread_env": mapped["thread_env"],
    }
    if trace:
        traced = runs["traced"]
        export = {**traced["trace"]["spans"], "marks": traced["trace"]["marks"]}
        keep = [True] * len(export["starts"])
        wall = traced["end_ns"] - traced["start_ns"]
        metrics, books = analysis.layer_metrics(export, keep, wall, wall)
        for name in ("http.requests", "http.request_bytes", "http.response_bytes",
                     "lifecycle.history_rows"):
            metrics[name] = 0
        untraced_per = (_per_iteration_ns(runs["untraced"])
                        + _per_iteration_ns(runs["untraced_after"])) / 2
        metrics["trace.overhead_fraction"] = _per_iteration_ns(traced) / untraced_per - 1.0
        details["books"] = books
        correct_trace = books["residual_ns"] == 0
    else:
        iterations = runs["untraced"]["iterations"]
        # Each stage is scaled by the kernel runs on either side of it.
        fit_scales = [speed.scale(speed.OFFLINE_PARTS, *it["kernel_ns"][:2])
                      for it in iterations]
        detect_scales = [speed.scale(speed.OFFLINE_PARTS, *it["kernel_ns"][1:])
                         for it in iterations]
        passes = list(zip(iterations, detect_scales))
        latencies = [[ns / 1e6 / scale for ns in it["latencies_ns"]] for it, scale in passes]
        weeks = -(-rows // WEEK_ROWS)
        metrics = {
            "rows_per_s": statistics.median(
                it["rows"] / (it["detect_ns"] / 1e9) * scale for it, scale in passes),
            "latency_p50_ms": stats.median_over(latencies, lambda p: stats.percentile(p, 0.50)),
            "latency_p99_ms": stats.percentile(sum(latencies, []), 0.99),
            "scrape_p50_ms": statistics.median(
                it["report_ns"] / weeks / 1e6 / scale for it, scale in passes),
            "fit_s": statistics.median(
                it["fit_ns"] / 1e9 / scale for it, scale in zip(iterations, fit_scales)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        scales = fit_scales + detect_scales
        samples = sum(len(part) for part in latencies)
        details.update({
            "iterations": len(iterations),
            "latency_samples": samples,
            "latency_p99_supported": stats.tail_is_supported(samples, 0.99),
            "setup_samples_s": setups,
            "host_scale": {"median": statistics.median(scales),
                           "min": min(scales), "max": max(scales)},
            "measured_rows_per_s": statistics.median(
                it["rows"] / (it["detect_ns"] / 1e9) for it in iterations),
            "measured_fit_s": statistics.median(it["fit_ns"] / 1e9 for it in iterations),
        })
        correct_trace = True
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and correct_trace,
        "details": details,
    }


def _per_iteration_ns(phase: dict) -> float:
    iterations = phase["iterations"]
    return sum(it["fit_ns"] + it["detect_ns"] + it["report_ns"] for it in iterations) / len(iterations)
