#!/usr/bin/env python3
"""The benchmark of record, from HTTP bytes in to the alarm out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload block-ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run instead and reports the per-layer metrics.  Every run checks
every outcome against a batch reference.  Human-readable lines (all
eight end-to-end figures, including ``error_rate``, and the run's
provenance) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record of the run is written under
``.perfbench_work/results/``.

``python3 perfbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` from :mod:`spec`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common

# Pinned before numpy is imported anywhere in this process.
os.environ.update(common.PINNED_THREAD_ENV)
sys.dont_write_bytecode = True


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    source = common.source_dir()
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import spec

    if args.write_manifest:
        spec.write_manifest(common.checkout_root() / "BENCHMARK.json")
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import speed

    # The process under test and the calibrator get speed.PROGRAM_CPU.
    os.sched_setaffinity(0, {speed.GENERATOR_CPU})
    runner, _ = spec.WORKLOADS[args.workload]
    work = common.work_root() / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = runner(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {}
    for name, unit, *_ in declared:
        metrics[name] = {"value": float(result["metrics"][name]), "unit": unit}
    printed_only = {} if args.trace else {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in spec.PRINTED_ONLY
    }
    error_rate = result["failed"] / result["attempted"]
    provenance = common.provenance(args.seed, args.workload)
    provenance["offered_requests_per_s"] = spec.OFFERED_REQUESTS_PER_S.get(args.workload)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, entry in {**metrics, **printed_only}.items():
        print(f"  {name:<42} {_format(entry['value']):>14} {entry['unit']}")
    print(f"  {'error_rate':<42} {_format(error_rate):>14} fraction "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for key, value in result["details"].items():
        if key not in ("growth", "reference", "books"):
            print(f"  {key}: {value}")
    for key in ("reference", "books"):
        if key in result["details"]:
            print(f"  {key}: {json.dumps(result['details'][key])[:400]}")
    growth = result["details"].get("growth")
    if growth:
        for kind in ("refit", "checkpoint"):
            points = [p for p in growth if p["kind"] == kind]
            if points:
                print(f"  state growth ({kind}): {len(points)} points, "
                      f"{points[0]['history_rows']:.0f} -> {points[-1]['history_rows']:.0f} "
                      f"history rows, {points[0]['ms']:.2f} -> {points[-1]['ms']:.2f} ms")
    print(f"  provenance: {json.dumps(provenance)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": error_rate,
        "metrics": metrics,
        "printed_only": printed_only,
        "details": result["details"],
        "provenance": provenance,
    }
    results = common.work_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
