"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows to
operators without writing Python:

========  ===========================================================
command   what it does
========  ===========================================================
info      Table-1 summary of one or more preset datasets
topology  render a backbone topology (paper Fig. 2)
build     build a preset dataset and save it as ``.npz``
diagnose  run detect -> identify -> quantify over a dataset
pipeline  run the vectorized DetectionPipeline (batch or streaming)
compare   rank detectors by AUC over an injection grid (Fig. 10++)
shard     sharded detection plane: temporal (exact) / spatial (fusion)
scenarios list or run declarative anomaly-taxonomy scenario suites
serve     run the always-on detection daemon (ingest/metrics/health)
chaos     fault-injection matrix over the sharded detection plane
inject    run a §6.3 injection sweep on a saved or preset dataset
table2    regenerate the paper's Table 2
table3    regenerate the paper's Table 3
========  ===========================================================
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]

_PRESETS = ("sprint-1", "sprint-2", "abilene")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Lakhina et al., 'Diagnosing Network-Wide "
            "Traffic Anomalies' (SIGCOMM 2004)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="Table-1 summary of preset datasets")
    info.add_argument(
        "datasets", nargs="*", default=list(_PRESETS),
        help=f"preset names (default: {' '.join(_PRESETS)})",
    )

    topology = commands.add_parser("topology", help="render a topology (Fig. 2)")
    topology.add_argument("name", choices=["abilene", "sprint-europe"])
    topology.add_argument(
        "--map", action="store_true", help="also draw the coordinate map"
    )

    build = commands.add_parser("build", help="build and save a preset dataset")
    build.add_argument("dataset", choices=_PRESETS)
    build.add_argument("-o", "--output", required=True, help="output .npz path")

    diagnose = commands.add_parser(
        "diagnose", help="diagnose anomalies in a dataset"
    )
    diagnose.add_argument(
        "dataset", help="a preset name or a saved .npz path"
    )
    diagnose.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999)",
    )

    pipeline = commands.add_parser(
        "pipeline", help="run the vectorized detection pipeline"
    )
    modes = pipeline.add_subparsers(dest="mode", required=True)

    pipe_run = modes.add_parser(
        "run", help="fit on a dataset and diagnose it in one batched pass"
    )
    pipe_run.add_argument("dataset", help="a preset name or a saved .npz path")
    pipe_run.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999)",
    )
    pipe_run.add_argument(
        "--rank", type=int, default=None,
        help="explicit normal-subspace rank (default: 3-sigma separation)",
    )
    pipe_run.add_argument(
        "--dtype", choices=("float32", "float64"), default="float64",
        help="scoring precision (fits always run in float64; default "
        "float64)",
    )

    pipe_stream = modes.add_parser(
        "stream", help="warm up on leading bins, stream the rest in windows"
    )
    pipe_stream.add_argument(
        "dataset", help="a preset name or a saved .npz path"
    )
    pipe_stream.add_argument(
        "--warmup-bins", type=int, default=720,
        help="bins used to fit the initial model (default 720 = five days)",
    )
    pipe_stream.add_argument(
        "--window", type=int, default=36,
        help="bins scored and folded per streaming window (default 36)",
    )
    pipe_stream.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999)",
    )
    pipe_stream.add_argument(
        "--forgetting", type=float, default=1.0 / 1008.0,
        help="exponential forgetting factor (default 1/1008, one week)",
    )

    compare = commands.add_parser(
        "compare",
        help="compare detectors on an injection grid (paper Fig. 10, "
        "generalized)",
    )
    compare.add_argument(
        "datasets", nargs="*", default=["sprint-1"],
        help="preset names or saved .npz paths (default: sprint-1)",
    )
    compare.add_argument(
        "--detectors", default="subspace,ewma,fourier",
        help="comma-separated registry names "
        "(default: subspace,ewma,fourier)",
    )
    compare.add_argument(
        "--sizes", default=None,
        help="comma-separated injection sizes in bytes (default: the "
        "paper's Table-3 sizes for preset datasets)",
    )
    compare.add_argument(
        "--injections", type=int, default=24,
        help="spikes per injection scenario (default 24)",
    )
    compare.add_argument(
        "--confidence", type=float, default=0.999,
        help="confidence level for each detector's own threshold "
        "(default 0.999)",
    )
    compare.add_argument(
        "--confidences", default=None,
        help="comma-separated confidence levels; every level reads its "
        "operating point off the same fitted model and scores "
        "(overrides --confidence)",
    )
    compare.add_argument(
        "--min-event-bytes", type=float, default=0.0,
        help="ground-truth ledger cutoff for the baseline truth set "
        "(default 0 = every event)",
    )
    compare.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per grid cell, capped at "
        "the CPU count)",
    )
    compare.add_argument(
        "--seed", type=int, default=20040830,
        help="base seed for deterministic injection placement",
    )
    compare.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the full report as JSON to this path",
    )

    shard = commands.add_parser(
        "shard",
        help="sharded detection plane (coordinator/worker fit fan-out)",
    )
    shard_modes = shard.add_subparsers(dest="mode", required=True)
    shard_run = shard_modes.add_parser(
        "run",
        help="temporal: sharded fit + exactness check; spatial: fusion "
        "modes vs the monolithic detector over a scenario suite",
    )
    shard_run.add_argument(
        "dataset", nargs="?", default="sprint-1",
        help="preset name or saved .npz path for the temporal fit "
        "(default: sprint-1)",
    )
    shard_run.add_argument(
        "--mode", dest="shard_mode", default="both",
        choices=["temporal", "spatial", "both"],
        help="which sharding plane to exercise (default: both)",
    )
    shard_run.add_argument(
        "--shards", type=int, default=4,
        help="temporal time chunks (default 4)",
    )
    shard_run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per shard, capped at the "
        "CPU count; 1 = serial, identical results)",
    )
    shard_run.add_argument(
        "--zones", type=int, default=2,
        help="spatial link zones (default 2)",
    )
    shard_run.add_argument(
        "--scheme", default="contiguous",
        choices=["contiguous", "round-robin"],
        help="spatial link partition scheme (default contiguous)",
    )
    shard_run.add_argument(
        "--suite", default="core",
        help="scenario suite for the spatial fusion comparison "
        "(default: core)",
    )
    shard_run.add_argument(
        "--fa-budget", type=float, default=0.01,
        help="shared false-alarm budget of the fusion comparison "
        "(default 0.01)",
    )
    shard_run.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999)",
    )
    shard_run.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the shard/fusion reports as JSON to this path",
    )

    scenarios = commands.add_parser(
        "scenarios",
        help="declarative anomaly-taxonomy scenario suites",
    )
    scenario_modes = scenarios.add_subparsers(dest="mode", required=True)

    scenario_modes.add_parser(
        "list", help="list registered suites, scenarios and families"
    )

    scenario_run = scenario_modes.add_parser(
        "run", help="compile a suite and diagnose every scenario"
    )
    scenario_run.add_argument(
        "--suite", default="core",
        help="registered suite name (default: core)",
    )
    scenario_run.add_argument(
        "--spec", default=None,
        help="run a single scenario by name instead of a whole suite",
    )
    scenario_run.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999)",
    )
    scenario_run.add_argument(
        "--no-streaming-check", action="store_true",
        help="skip the streaming-vs-batch alarm parity check",
    )
    scenario_run.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the canonical suite report as JSON to this path",
    )

    serve = commands.add_parser(
        "serve",
        help="run the always-on detection daemon (POST /ingest, "
        "GET /metrics, GET /health)",
    )
    serve.add_argument(
        "dataset", help="a preset name or a saved .npz path"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port (default 8787; 0 picks a free port)",
    )
    serve.add_argument(
        "--warmup-bins", type=int, default=720,
        help="leading bins used to fit model version 1 (default 720)",
    )
    serve.add_argument(
        "--confidence", type=float, default=0.999,
        help="Q-statistic confidence level (default 0.999; --resume "
        "takes it from the checkpoint)",
    )
    serve.add_argument(
        "--refit-interval", type=int, default=None,
        help="automatically refit after this many ingested rows "
        "(default: manual refits via POST /refit)",
    )
    serve.add_argument(
        "--synchronous-refit", action="store_true",
        help="run automatic refits inline in the ingesting request "
        "(deterministic swap boundaries; used by the parity smoke)",
    )
    serve.add_argument(
        "--event-log", default=None,
        help="append alarm/lifecycle events to this JSONL file",
    )
    serve.add_argument(
        "--no-routing", action="store_true",
        help="detection only: skip identification/quantification",
    )
    serve.add_argument(
        "--dtype", choices=("float32", "float64"), default="float64",
        help="scoring precision (fits always run in float64; default "
        "float64; --resume takes it from the checkpoint)",
    )
    serve.add_argument(
        "--checkpoint", default=None,
        help="persist the model lifecycle to this file (atomic writes; "
        "POST /checkpoint, every --checkpoint-interval rows, and on "
        "shutdown/SIGTERM)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=None,
        help="auto-checkpoint after this many ingested rows "
        "(requires --checkpoint)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="restart warm from --checkpoint instead of refitting from "
        "the warmup bins (the file must exist)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="drive the fault-injection chaos harness "
        "(see docs/robustness.md)",
    )
    chaos_modes = chaos.add_subparsers(dest="chaos_mode", required=True)
    chaos_run = chaos_modes.add_parser(
        "run",
        help="run the fault x plane chaos matrix over a scenario suite",
    )
    chaos_run.add_argument(
        "--suite", default="core",
        help="scenario suite to replay under faults (default 'core')",
    )
    chaos_run.add_argument(
        "--policy", choices=("fail-fast", "retry", "partial"),
        default="retry",
        help="fault policy every cell runs under (default 'retry')",
    )
    chaos_run.add_argument(
        "--faults", nargs="+", default=None, metavar="FAULT",
        help="restrict to these fault kinds (default: all)",
    )
    chaos_run.add_argument(
        "--planes", nargs="+", default=None, metavar="PLANE",
        help="restrict to these planes: temporal, spatial, service "
        "(default: all)",
    )
    chaos_run.add_argument(
        "--max-scenarios", type=int, default=None,
        help="only replay the first N scenarios of the suite",
    )
    chaos_run.add_argument(
        "--workers", type=int, default=2,
        help="supervised-pool workers per cell (default 2)",
    )
    chaos_run.add_argument(
        "--deadline", type=float, default=5.0,
        help="per-task deadline in seconds bounding hung tasks "
        "(default 5.0)",
    )
    chaos_run.add_argument(
        "--no-recall-probe", action="store_true",
        help="skip the degraded-recall gate (faster smoke runs)",
    )
    chaos_run.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the full chaos report as JSON to this path",
    )

    inject = commands.add_parser("inject", help="run a §6.3 injection sweep")
    inject.add_argument("dataset", help="a preset name or a saved .npz path")
    inject.add_argument(
        "--size", type=float, required=True, help="spike size in bytes"
    )
    inject.add_argument(
        "--bins", type=int, default=144,
        help="number of leading time bins to sweep (default 144 = one day)",
    )

    commands.add_parser("table2", help="regenerate the paper's Table 2")
    commands.add_parser("table3", help="regenerate the paper's Table 3")
    return parser


def _load_dataset(name_or_path: str):
    from repro.datasets import build_dataset, load_dataset

    if name_or_path in _PRESETS:
        return build_dataset(name_or_path)
    return load_dataset(name_or_path)


def _cmd_info(args) -> int:
    from repro.datasets import build_dataset, summary_table

    datasets = [build_dataset(name) for name in args.datasets]
    print(summary_table(datasets))
    return 0


def _cmd_topology(args) -> int:
    from repro.topology.library import abilene, sprint_europe
    from repro.topology.rendering import render_ascii_map, render_topology

    network = abilene() if args.name == "abilene" else sprint_europe()
    print(render_topology(network))
    if args.map:
        print()
        print(render_ascii_map(network))
    return 0


def _cmd_build(args) -> int:
    from repro.datasets import build_dataset, save_dataset

    dataset = build_dataset(args.dataset)
    path = save_dataset(dataset, args.output)
    print(f"wrote {dataset.name} ({dataset.num_bins} bins x "
          f"{dataset.num_links} links) to {path}")
    return 0


def _cmd_diagnose(args) -> int:
    from repro.pipeline import DetectionPipeline

    return _diagnosis_report(
        _load_dataset(args.dataset),
        DetectionPipeline(confidence=args.confidence),
    )


def _diagnosis_report(dataset, pipeline) -> int:
    """Fit ``pipeline`` on a dataset, diagnose it in one pass and print
    the header and one row per anomaly (``diagnose`` and ``pipeline
    run``)."""
    pipeline.fit(dataset.link_traffic, routing=dataset.routing)
    result = pipeline.detect(dataset.link_traffic)
    print(
        f"dataset {dataset.name}: rank {pipeline.normal_rank}, "
        f"threshold {result.threshold:.3e}, {result.num_alarms} anomalies "
        f"at {result.detection.confidence:.4f} confidence"
    )
    for diagnosis in result.diagnoses():
        origin, destination = diagnosis.od_pair
        print(
            f"  bin {diagnosis.time_bin:>4}  {origin}->{destination:<6} "
            f"{diagnosis.estimated_bytes:>+12.3e} bytes  "
            f"(SPE/threshold {diagnosis.spe / diagnosis.threshold:.1f})"
        )
    return 0


def _cmd_pipeline(args) -> int:
    from repro.pipeline import DetectionPipeline

    dataset = _load_dataset(args.dataset)
    if args.mode == "run":
        return _diagnosis_report(
            dataset,
            DetectionPipeline(
                confidence=args.confidence, normal_rank=args.rank,
                dtype=args.dtype,
            ),
        )

    warmup = args.warmup_bins
    if not 2 <= warmup < dataset.num_bins:
        print(
            f"error: --warmup-bins must lie in [2, {dataset.num_bins}) for "
            f"this dataset, got {warmup}",
            file=sys.stderr,
        )
        return 2
    pipeline = DetectionPipeline(confidence=args.confidence).fit(
        dataset.link_traffic[:warmup], routing=dataset.routing
    )
    print(
        f"dataset {dataset.name}: warmed up on {warmup} bins, "
        f"rank {pipeline.normal_rank}, threshold {pipeline.threshold:.3e}"
    )
    alarms = 0
    for window in pipeline.stream(
        dataset.link_traffic[warmup:],
        window_bins=args.window,
        forgetting=args.forgetting,
    ):
        alarms += window.num_alarms
        for position, bin_in_stream in enumerate(window.anomalous_bins):
            flow_text = "unidentified"
            if window.od_pairs:
                origin, destination = window.od_pairs[position]
                size = window.estimated_bytes[position]
                flow_text = f"{origin}->{destination}, {size:+.3e} bytes"
            print(
                f"  bin {warmup + int(bin_in_stream):>4}  "
                f"threshold {window.threshold:.3e}  {flow_text}"
            )
    print(
        f"streamed {dataset.num_bins - warmup} bins in windows of "
        f"{args.window}: {alarms} alarms"
    )
    return 0


def _cmd_compare(args) -> int:
    import json

    from repro.pipeline import ComparisonRunner
    from repro.validation.experiments import PAPER_INJECTION_SIZES

    datasets = [_load_dataset(name) for name in args.datasets]
    detectors = [name for name in args.detectors.split(",") if name.strip()]
    if args.sizes is not None:
        try:
            sizes = [
                float(size) for size in args.sizes.split(",") if size.strip()
            ]
        except ValueError:
            print(
                f"error: --sizes must be comma-separated numbers, got "
                f"{args.sizes!r}",
                file=sys.stderr,
            )
            return 2
    else:
        sizes = sorted(
            {
                size
                for dataset in datasets
                if dataset.name in PAPER_INJECTION_SIZES
                for size in PAPER_INJECTION_SIZES[dataset.name]
            },
            reverse=True,
        )
        if not sizes:
            print(
                "error: no paper injection sizes known for "
                f"{[d.name for d in datasets]}; pass --sizes explicitly",
                file=sys.stderr,
            )
            return 2
    confidences = None
    if args.confidences is not None:
        try:
            confidences = [
                float(level)
                for level in args.confidences.split(",")
                if level.strip()
            ]
        except ValueError:
            print(
                f"error: --confidences must be comma-separated numbers, "
                f"got {args.confidences!r}",
                file=sys.stderr,
            )
            return 2
    report = ComparisonRunner(
        datasets,
        detectors=detectors,
        injection_sizes=sizes,
        num_injections=args.injections,
        confidence=args.confidence,
        confidences=confidences,
        min_event_bytes=args.min_event_bytes,
        workers=args.workers,
        seed=args.seed,
    ).run()
    print(report.table())
    print()
    print(report.operating_table())
    ranking = report.ranking()
    print()
    print(
        f"winner: {ranking[0]} "
        f"(mean AUC {report.mean_auc(ranking[0]):.4f}) over "
        f"{len(report)} cells in {report.elapsed_seconds:.1f}s"
    )
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"wrote JSON report to {args.json_path}")
    return 0


def _cmd_shard(args) -> int:
    import json

    from repro.pipeline.sharded import (
        TemporalCoordinator,
        temporal_fit_matches_monolithic,
    )
    from repro.scenarios.fusion import run_fusion_suite

    payload: dict = {}
    exit_status = 0

    if args.shard_mode in ("temporal", "both"):
        dataset = _load_dataset(args.dataset)
        fit = TemporalCoordinator(
            num_shards=args.shards,
            workers=args.workers,
            confidence=args.confidence,
        ).fit(dataset.link_traffic)
        exact = temporal_fit_matches_monolithic(fit, dataset.link_traffic)
        report = fit.report
        print(
            f"temporal: {dataset.name} ({report.num_rows} bins x "
            f"{report.num_links} links) over {report.num_shards} shards, "
            f"{report.workers} workers"
        )
        print(
            f"  rank {fit.detector.normal_rank}, threshold "
            f"{fit.detector.threshold:.3e}, fitted in "
            f"{report.elapsed_seconds:.3f}s (merge {report.merge_seconds:.3f}s, "
            f"fit {report.fit_seconds:.3f}s, separation "
            f"{report.separation_seconds:.3f}s)"
        )
        print(
            "  bit-identical to the monolithic gram fit: "
            + ("yes" if exact else "NO")
        )
        payload["temporal"] = report.to_json()
        payload["temporal"]["exact_match_monolithic"] = bool(exact)
        if not exact:
            exit_status = 1

    if args.shard_mode in ("spatial", "both"):
        fusion = run_fusion_suite(
            args.suite,
            num_zones=args.zones,
            scheme=args.scheme,
            confidence=args.confidence,
            fa_budget=args.fa_budget,
        )
        if args.shard_mode == "both":
            print()
        print(fusion.table())
        within = fusion.modes_within(0.05)
        print(
            "fusion modes within 5% of monolithic recall at equal "
            f"false-alarm budget: {', '.join(within) if within else 'NONE'}"
        )
        payload["spatial"] = fusion.to_json()
        if not within:
            exit_status = 1

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote JSON report to {args.json_path}")
    return exit_status


def _cmd_scenarios(args) -> int:
    from repro import scenarios

    if args.mode == "list":
        print(f"families: {', '.join(scenarios.FAMILIES)}")
        print()
        for suite in scenarios.suite_names():
            specs = scenarios.get_suite(suite)
            print(f"suite {suite!r} ({len(specs)} scenarios):")
            for spec in specs:
                families = ",".join(spec.families())
                print(
                    f"  {spec.name:<22} {spec.topology:<13} "
                    f"[{families}]  {spec.description}"
                )
        return 0

    runner = scenarios.ScenarioRunner(
        confidence=args.confidence,
        check_streaming=not args.no_streaming_check,
    )
    if args.spec is not None:
        specs = (scenarios.get_spec(args.spec),)
        # A single spec is resolved across every registered suite, so
        # the report must not claim membership in --suite's grouping.
        report = runner.run(specs, suite=f"spec:{args.spec}")
    else:
        report = runner.run(scenarios.get_suite(args.suite), suite=args.suite)
    print(report.table())
    families = report.families()
    detected = sum(o.num_detected_events for o in report)
    total = sum(len(o.events) for o in report)
    print()
    print(
        f"{len(report)} scenarios, {len(families)} anomaly families "
        f"({', '.join(families)}), {detected}/{total} events detected"
    )
    # Write the report before the parity gate: on a violation the JSON
    # artifact is exactly what one needs to diagnose the divergence.
    if args.json_path:
        with open(args.json_path, "w") as handle:
            handle.write(scenarios.canonical_json(report.to_json()))
        print(f"wrote JSON report to {args.json_path}")
    if not all(o.streaming_parity for o in report):
        print("error: streaming/batch alarm parity violated", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.service import DetectionService, EventLog, ServiceConfig
    from repro.service.http import serve as run_server

    dataset = _load_dataset(args.dataset)
    warmup = args.warmup_bins
    if not 2 <= warmup <= dataset.num_bins:
        print(
            f"error: --warmup-bins must lie in [2, {dataset.num_bins}] for "
            f"this dataset, got {warmup}",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_interval is not None and not args.checkpoint:
        print(
            "error: --checkpoint-interval requires --checkpoint",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    config = ServiceConfig(
        confidence=args.confidence,
        refit_interval=args.refit_interval,
        synchronous_refit=args.synchronous_refit,
        dtype=args.dtype,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
    )
    event_log = EventLog(args.event_log) if args.event_log else None
    routing = None if args.no_routing else dataset.routing
    if args.resume:
        service = DetectionService.from_checkpoint(
            args.checkpoint,
            routing=routing,
            config=config,
            event_log=event_log,
        )
        version = service.lifecycle.current
        print(
            f"dataset {dataset.name}: resumed from {args.checkpoint} at "
            f"bin {service.rows_ingested}, model version {version.version}, "
            f"rank {version.normal_rank}, threshold {version.threshold:.3e}"
        )
    else:
        service = DetectionService.from_warmup(
            dataset.link_traffic[:warmup],
            routing=routing,
            config=config,
            event_log=event_log,
        )
        version = service.lifecycle.current
        print(
            f"dataset {dataset.name}: warmed up on {warmup} bins, "
            f"rank {version.normal_rank}, threshold {version.threshold:.3e}"
        )

    def announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port} (POST /shutdown to stop)",
              flush=True)

    run_server(service, host=args.host, port=args.port, announce=announce)
    print(
        f"stopped after {service.rows_ingested} rows, "
        f"model version {service.lifecycle.current.version}"
    )
    return 0


def _cmd_chaos(args) -> int:
    from repro.pipeline.chaos import CHAOS_FAULTS, CHAOS_PLANES, run_chaos_suite

    report = run_chaos_suite(
        suite=args.suite,
        policy=args.policy,
        faults=tuple(args.faults) if args.faults else CHAOS_FAULTS,
        planes=tuple(args.planes) if args.planes else CHAOS_PLANES,
        max_scenarios=args.max_scenarios,
        workers=args.workers,
        deadline=args.deadline,
        probe_degraded_recall=not args.no_recall_probe,
    )
    print(report.table())
    if args.json_path:
        import json

        from pathlib import Path

        Path(args.json_path).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json_path}")
    if not report.all_ok:
        return 1
    if (
        report.degraded_recall is not None
        and not report.degraded_recall["within_tolerance"]
    ):
        return 1
    return 0


def _cmd_inject(args) -> int:
    import numpy as np

    from repro.validation import InjectionStudy

    dataset = _load_dataset(args.dataset)
    study = InjectionStudy(dataset)
    result = study.run(args.size, time_bins=np.arange(args.bins))
    print(
        f"injection sweep on {dataset.name}: size {args.size:.3e} bytes, "
        f"{args.bins} bins x {dataset.num_flows} flows"
    )
    print(f"  detection rate:      {result.detection_rate * 100:.1f}%")
    print(f"  identification rate: {result.identification_rate * 100:.1f}%")
    quant = result.mean_quantification_error
    quant_text = "-" if quant != quant else f"{quant * 100:.1f}%"
    print(f"  quantification err:  {quant_text}")
    return 0


def _cmd_table2(args) -> int:
    from repro.datasets import build_dataset
    from repro.validation import render_table2
    from repro.validation.experiments import run_actual_anomaly_experiment

    rows = []
    for name in _PRESETS:
        dataset = build_dataset(name)
        for method in ("fourier", "ewma"):
            rows.append(run_actual_anomaly_experiment(dataset, method=method))
    print(render_table2(rows))
    return 0


def _cmd_table3(args) -> int:
    from repro.datasets import build_dataset
    from repro.validation import render_table3
    from repro.validation.experiments import run_synthetic_experiment

    rows = []
    for name in ("sprint-1", "abilene"):
        large, small, _ = run_synthetic_experiment(build_dataset(name))
        rows.extend([large, small])
    print(render_table3(rows))
    return 0


_HANDLERS = {
    "info": _cmd_info,
    "topology": _cmd_topology,
    "build": _cmd_build,
    "diagnose": _cmd_diagnose,
    "pipeline": _cmd_pipeline,
    "compare": _cmd_compare,
    "shard": _cmd_shard,
    "scenarios": _cmd_scenarios,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "inject": _cmd_inject,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
