"""The two HTTP workloads: ``block-ingest`` and ``fleet-bins``.

Both start the server (:mod:`server`) as a child process, drive it from
this process over one keep-alive connection, and check every returned
outcome against the batch reference after the measured window.

Operator probes run before the window on a history of fixed size, so
their cost does not depend on how many rows the window managed to
ingest: ``fit_s`` is the client-observed time of a synchronous
``POST /refit`` (a fit on the whole history the service holds), and on
``block-ingest`` ``scrape_p50_ms`` comes from ``GET /metrics`` probes
(``fleet-bins`` scrapes inside its window instead).  For the same
reason ``peak_rss_mb`` on ``block-ingest`` is read once the stream has
reached a fixed number of rows.

Every timed figure is scaled to the reference host speed (:mod:`speed`):
a calibrator process on the server's CPU runs the reference kernel
before every probe round and between time slices of the window, while
the server is idle, and each probe or slice is scaled by the kernel
times around it.  The measured figures stay in the run's details.
"""

from __future__ import annotations

import itertools
import json
import statistics
from pathlib import Path

import numpy as np

import analysis
import common
import speed
import stats
import traffic
from loadgen import Connection, Exchange, OpenLoopReport, clock, encode
from reference import CheckResult, TenantLog, check_tenant

#: Server launches per run; ``setup_s`` and ``fit_s`` pool them, because
#: a fit's speed varies between processes as well as within one.
#: ``block-ingest`` measures a third of its window in each launch,
#: ``fleet-bins`` measures its window on the last.
SETUP_REPEATS = 3
FLEET_LAUNCHES = 5
#: Probe rounds per launch.  A round is one run of the reference kernel,
#: then one synchronous ``POST /refit`` (``fit_s`` is the median over
#: every round of a run), on ``block-ingest`` followed by one
#: ``GET /metrics``; both are scaled by that kernel time.
PROBE_ROUNDS = 30

BLOCK_ROWS = 50
#: Two weeks of bins: the history every refit probe fits on.
BLOCK_WARMUP_BINS = 2016
#: Distinct rows the closed loop cycles through (a multiple of BLOCK_ROWS).
BLOCK_POOL_BINS = 20_000
#: Requests per slice of the window (about 0.5 s).  The reference kernel
#: runs between slices; rates and median latencies are medians over
#: slices of scaled figures, so a burst of host noise moves only some of
#: them.  The p99 is taken over the whole window, where its tail is
#: largest.
BLOCK_SLICE_REQUESTS = 150
#: ``peak_rss_mb`` is read when this many stream rows have been accepted.
RSS_AT_ROWS = 20_000

FLEET_TENANTS = 16
FLEET_REFIT_EVERY = 144
#: Bin rounds per second offered by the open loop; each round is one
#: 1-row ingest per tenant plus one scrape.  About half the closed-loop
#: capacity of a 2-core host (43.8 rounds/s measured by ``calibrate.py``).
FLEET_ROUNDS_PER_S = 22.0
FLEET_REQUESTS_PER_ROUND = FLEET_TENANTS + 1
#: The window is offered as this many open-loop segments of equal length,
#: with the reference kernel run between them while the server is idle.
#: Median latencies are medians over segments of scaled figures, so a
#: burst of host noise moves one segment, not the run.  The p99 is taken
#: over the whole window (over 50 samples beyond it).
FLEET_SLICES = 5
#: The generator fell behind its schedule when more than MAX_BEHIND_SHARE
#: of its sends left over BEHIND_MS late.  Pauses of a few milliseconds
#: stall the whole host, server included, and latency from the due time
#: already charges them to the run; a generator that cannot keep the
#: offered rate falls further behind with every send.
BEHIND_MS = 10.0
MAX_BEHIND_SHARE = 0.01
#: A window in which more than NOISY_SHARE of sends left over 1 ms late
#: ran while the host stalled the generator, and latency from the due
#: time charges those stalls to the server.  Such a window is repeated on
#: a fresh launch, up to FLEET_ATTEMPTS windows, and the run reports the
#: window whose generator kept its schedule best; every attempt's
#: outcomes are still checked.
NOISY_SHARE = 0.05
FLEET_ATTEMPTS = 3


def fleet_tenant(index: int) -> tuple[str, int, int]:
    """Name, warmup rows and stream offset of fleet tenant ``index``.

    Warmup lengths differ per tenant.  Refit and checkpoint cadences
    count from the end of warmup, so the stagger itself comes from the
    offset: tenant ``i`` is sent ``9 i`` rows before the window, which
    spreads the tenants' refits and checkpoints across the 144-row
    cycle.
    """
    return f"t{index:02d}", 2016 - 63 * index, 9 * index


# ----------------------------------------------------------------------
class Server:
    """A launched server child plus the generator's connection to it."""

    def __init__(self, spec: dict, spec_path: Path) -> None:
        spec_path.write_text(json.dumps(spec))
        self.child = common.Child([str(common.BENCH_DIR / "server.py"), str(spec_path)],
                                  cpu=speed.PROGRAM_CPU)
        try:
            ready = self.child.read_message(timeout=170)
            self.thread_env = ready["thread_env"]
            self.conn = Connection("127.0.0.1", ready["port"])
            health = self.conn.call(
                Exchange("health", "setup", request=encode("GET", "/health"))
            )
        except BaseException:
            self.child.kill()
            raise
        if health.status != 200:
            self.child.kill()
            raise RuntimeError(f"/health answered {health.status}")
        self.setup_s = (health.done_ns - self.child.started_ns) / 1e9

    def stop(self) -> None:
        try:
            self.conn.call(Exchange("shutdown", "end", request=encode("POST", "/shutdown")))
        finally:
            self.conn.close()
            code = self.child.wait(60)
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")


def launch(spec: dict, work: Path, repeats: int, probe) -> tuple[Server, list[float], list]:
    """Start the server ``repeats`` times; keep the last one running.

    ``probe(server)`` runs on every launch and returns its exchanges, so
    the operator probes of one run are spread over all of its launches
    rather than bunched into one moment of a noisy host.  Returns the
    running server, every set-up time, and every launch's probes.
    """
    setups, probes = [], []
    for attempt in range(repeats):
        measured = attempt == repeats - 1
        launch_spec = dict(spec, trace=spec["trace"] and measured)
        server = Server(launch_spec, work / f"spec-{attempt}.json")
        setups.append(server.setup_s)
        try:
            probes.append(probe(server))
        except BaseException:
            server.stop()
            raise
        if measured:
            return server, setups, probes
        server.stop()
    raise ValueError("repeats must be >= 1")


def _probe(server, scrape: bool, calibrator: speed.Calibrator) -> list[Exchange]:
    """PROBE_ROUNDS rounds of the kernel, one refit and, if asked, one scrape."""
    plan = [("refit", "POST", "/refit")] + [("scrape", "GET", "/metrics")] * scrape
    exchanges = []
    for _ in range(PROBE_ROUNDS):
        scale = speed.scale(calibrator.parts, calibrator.measure())
        for kind, method, path in plan:
            exchanges.append(server.conn.call(
                Exchange(kind, "probe", request=encode(method, path), scale=scale)
            ))
    return exchanges


def _ms(values_ns) -> list[float]:
    return [value / 1e6 for value in values_ns]


def _scaled_ms(exchanges, origin: str = "sent_ns") -> list[float]:
    """Latencies in ms at the reference speed, from send or due time."""
    return [(e.done_ns - getattr(e, origin)) / 1e6 / e.scale for e in exchanges]


def _host_scales(slices) -> dict:
    scales = [part[0].scale for part in slices]
    return {"median": statistics.median(scales), "min": min(scales), "max": max(scales)}


def _results(exchange: Exchange):
    if exchange.status != 200:
        return None
    return json.loads(exchange.body)["results"]


def _accepted_each(exchanges) -> list[int]:
    return [json.loads(e.body)["accepted"] if e.status == 200 else 0 for e in exchanges]


def _probe_stats(measured) -> tuple[list[float], list[float], int, int]:
    """Refit seconds, scrape milliseconds, probes sent, probes failed."""
    probes = [e for e in measured["probes"] if e.kind in ("refit", "scrape")]
    refits = [ms / 1e3 for ms in _scaled_ms(e for e in probes if e.kind == "refit")]
    scrapes = _scaled_ms(e for e in probes if e.kind == "scrape")
    return refits, scrapes, len(probes), sum(1 for e in probes if e.status != 200)


def _median_fit_ms(exchanges) -> float:
    return statistics.median(
        (e.done_ns - e.sent_ns) / 1e6 for e in exchanges if e.kind == "refit"
    )


def _window(exchanges) -> list[Exchange]:
    return [e for e in exchanges if e.phase == "window"]


def _busy_per_request(exchanges) -> float:
    window = _window(exchanges)
    return analysis.busy_and_wall(window)[0] / len(window)


def _traced(phase, trace_path: Path) -> tuple[list[dict], dict, dict, bool]:
    """Run the traced phase between two untraced ones; per-layer metrics.

    The untraced busy time per request, averaged over the phases before
    and after, is the base of ``trace.overhead_fraction``, so a drift of
    the host's speed during the run does not read as tracing overhead.
    Returns all three phases (every one is checked against the
    reference), the traced phase's metrics and details, and whether the
    books closed with every span inside its request.
    """
    before = phase(traced=False)
    measured = phase(traced=True)
    after = phase(traced=False)
    exchanges = measured["exchanges"]
    dump = json.loads(trace_path.read_text())
    export = {**dump["spans"], "marks": dump["marks"]}
    owners, bad = analysis.assign_requests(export, exchanges)
    keep = [owner >= 0 and exchanges[owner].phase == "window" for owner in owners]
    window = _window(exchanges)
    busy, wall = analysis.busy_and_wall(window)
    metrics, books = analysis.layer_metrics(export, keep, wall, busy)
    metrics["http.requests"] = len(window)
    metrics["http.request_bytes"] = sum(e.request_bytes for e in window)
    metrics["http.response_bytes"] = sum(e.response_bytes for e in window)
    metrics["lifecycle.history_rows"] = dump["history_rows"]
    baseline = (_busy_per_request(before["exchanges"])
                + _busy_per_request(after["exchanges"])) / 2
    metrics["trace.overhead_fraction"] = busy / len(window) / baseline - 1.0
    books["nesting_violations"] = bad
    details = {"books": books,
               "growth": analysis.growth_series(export, keep, dump["labels"])}
    ok = bad == 0 and books["residual_ns"] == 0
    return [before, measured, after], metrics, details, ok


def _outcome(metrics, details, measured_runs, check, valid: bool) -> dict:
    """Check every phase's outcomes and assemble the workload result.

    ``valid`` is False for a run whose figures must not be compared: a
    traced run whose books do not close, or a ``fleet-bins`` run whose
    generator fell behind.
    """
    checked = CheckResult()
    probes = probe_failures = 0
    for measured in measured_runs:
        checked.merge(check(measured["exchanges"]))
        _, _, sent, failed = _probe_stats(measured)
        probes += sent
        probe_failures += failed
    details["reference"] = {"checked_rows": checked.checked,
                            "mismatched_rows": checked.mismatched,
                            "examples": checked.examples}
    details["child_thread_env"] = measured_runs[-1]["thread_env"]
    return {
        "metrics": metrics,
        "attempted": checked.checked + probes,
        "failed": checked.mismatched + probe_failures,
        "correct": checked.mismatched == 0 and probe_failures == 0 and valid,
        "details": details,
    }


# ----------------------------------------------------------------------
def run_block_ingest(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    data, routing = traffic.generate(seed, BLOCK_WARMUP_BINS + BLOCK_POOL_BINS, "block-ingest")
    warmup, pool = data[:BLOCK_WARMUP_BINS], data[BLOCK_WARMUP_BINS:]
    np.save(work / "warmup.npy", warmup)
    traffic.save_routing(routing, work / "routing.npz")
    bodies = [
        encode("POST", "/ingest", json.dumps({"rows": pool[s : s + BLOCK_ROWS].tolist()}).encode())
        for s in range(0, BLOCK_POOL_BINS, BLOCK_ROWS)
    ]
    spec = {
        "multi_tenant": False,
        "routing": str(work / "routing.npz"),
        "config": {},
        "tenants": [{"name": "main", "warmup": str(work / "warmup.npy")}],
        "trace_out": str(work / "trace.json"),
    }
    def phase(traced: bool, window_s: float = seconds) -> dict:
        server, setups, probes = launch(
            dict(spec, trace=traced), work, 1, lambda s: _probe(s, True, calibrator)
        )
        exchanges: list[Exchange] = list(probes[-1])
        slices = []
        rss = None
        try:
            end = clock() + int(window_s * 1e9)
            sent_rows = 0
            before = calibrator.measure()
            while clock() < end:
                part = []
                for _ in range(BLOCK_SLICE_REQUESTS):
                    part.append(server.conn.call(Exchange(
                        "ingest", "window", rows=BLOCK_ROWS,
                        request=bodies[(sent_rows // BLOCK_ROWS) % len(bodies)],
                    )))
                    sent_rows += BLOCK_ROWS
                    if rss is None and sent_rows >= RSS_AT_ROWS:
                        rss = common.read_vm_hwm_mb(server.child.pid)
                after = calibrator.measure()
                scale = speed.scale(calibrator.parts, before, after)
                for exchange in part:
                    exchange.scale = scale
                exchanges.extend(part)
                slices.append(part)
                before = after
            if rss is None:
                rss = common.read_vm_hwm_mb(server.child.pid)
        finally:
            server.stop()
        return {"exchanges": exchanges, "slices": slices, "setups": setups, "rss": rss,
                "probes": [e for batch in probes for e in batch],
                "fit_ms_by_launch": [_median_fit_ms(batch) for batch in probes],
                "thread_env": server.thread_env}

    def check(exchanges) -> CheckResult:
        log = TenantLog(warmup)
        position = 0
        for exchange in exchanges:
            if exchange.kind == "refit" and exchange.status == 200:
                log.events.append(("refit", None, None))
            elif exchange.kind == "ingest":
                start = position % BLOCK_POOL_BINS
                block = pool[start : start + BLOCK_ROWS]
                log.events.append(("rows", block, _results(exchange)))
                position += BLOCK_ROWS
        return check_tenant(log, routing, refit_interval=None)

    with speed.Calibrator(speed.HTTP_PARTS, speed.PROGRAM_CPU) as calibrator:
        if trace:
            phases, metrics, details, trace_ok = _traced(phase, work / "trace.json")
            return _outcome(metrics, details, phases, check, trace_ok)
        # The window is split over SETUP_REPEATS launches, so the run
        # samples the host across its whole length rather than in one
        # stretch.
        runs = [phase(traced=False, window_s=seconds / SETUP_REPEATS)
                for _ in range(SETUP_REPEATS)]
    latencies, rates, measured_rates, refits, scrapes = [], [], [], [], []
    slices = [part for measured in runs for part in measured["slices"]]
    for part in slices:
        wall_s = (part[-1].done_ns - part[0].sent_ns) / 1e9
        measured_rates.append(sum(_accepted_each(part)) / wall_s)
        rates.append(measured_rates[-1] * part[0].scale)
        latencies.append(_scaled_ms(part))
    for measured in runs:
        probe_refits, probe_scrapes, _, _ = _probe_stats(measured)
        refits += probe_refits
        scrapes += probe_scrapes
    window_s = sum((part[-1].done_ns - part[0].sent_ns) / 1e9 for part in slices)
    samples = sum(len(part) for part in latencies)
    setups = [measured["setups"][0] for measured in runs]
    metrics = {
        "rows_per_s": statistics.median(rates),
        "latency_p50_ms": stats.median_over(latencies, lambda p: stats.percentile(p, 0.50)),
        "latency_p99_ms": stats.percentile(sum(latencies, []), 0.99),
        "scrape_p50_ms": stats.percentile(scrapes, 0.50),
        "fit_s": statistics.median(refits),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(measured["rss"] for measured in runs),
    }
    details = {
        "latency_samples": samples,
        "latency_p99_supported": stats.tail_is_supported(samples, 0.99),
        "setup_samples_s": setups,
        "fit_ms_median_by_launch": [m["fit_ms_by_launch"][0] for m in runs],
        "window_s": window_s,
        "slices": len(slices),
        "host_scale": _host_scales(slices),
        "measured_rows_per_s": statistics.median(measured_rates),
        "measured_latency_p50_ms": stats.median_over(
            [_ms(e.done_ns - e.sent_ns for e in part) for part in slices],
            lambda p: stats.percentile(p, 0.50)),
    }
    return _outcome(metrics, details, runs, check, True)


# ----------------------------------------------------------------------
def fleet_inputs(seed: int, rounds: int, work: Path):
    """Per-tenant ``(name, warmup, stream, offset)`` and the routing."""
    tenants = []
    routing = None
    for index in range(FLEET_TENANTS):
        name, warmup_bins, offset = fleet_tenant(index)
        data, routing = traffic.generate(seed, warmup_bins + offset + rounds, "fleet-bins", name)
        np.save(work / f"{name}.npy", data[:warmup_bins])
        tenants.append((name, data[:warmup_bins], data[warmup_bins:], offset))
    traffic.save_routing(routing, work / "routing.npz")
    return tenants, routing


def fleet_spec(tenants, work: Path, traced: bool, checkpoints: Path) -> dict:
    checkpoints.mkdir()
    return {
        "multi_tenant": True,
        "trace": traced,
        "routing": str(work / "routing.npz"),
        "config": {
            "refit_interval": FLEET_REFIT_EVERY,
            "synchronous_refit": True,
            "checkpoint_interval": FLEET_REFIT_EVERY,
        },
        "checkpoint_dir": str(checkpoints),
        "tenants": [
            {"name": name, "warmup": str(work / f"{name}.npy"),
             "checkpoint": str(checkpoints / f"{name}.ckpt")}
            for name, *_ in tenants
        ],
        "trace_out": str(work / "trace.json"),
    }


def fleet_offsets(conn, tenants) -> list[Exchange]:
    """Send each tenant its stagger offset as one block."""
    sent = []
    for name, _, stream, offset in tenants:
        if offset:
            body = json.dumps({"rows": stream[:offset].tolist()}).encode()
            sent.append(conn.call(Exchange(
                "ingest_tenant", "offset", tenant=name, rows=offset,
                request=encode("POST", f"/ingest/{name}", body))))
    return sent


def fleet_window(tenants, rounds: int) -> list[Exchange]:
    """Every bin round: one 1-row ingest per tenant, then one scrape."""
    window = []
    for r in range(rounds):
        for name, _, stream, offset in tenants:
            body = json.dumps({"rows": [stream[offset + r].tolist()]}).encode()
            window.append(Exchange("ingest_tenant", "window", tenant=name, rows=1,
                                   request=encode("POST", f"/ingest/{name}", body)))
        window.append(Exchange("scrape", "window", request=encode("GET", "/metrics")))
    return window


def run_fleet_bins(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    rounds = int(FLEET_ROUNDS_PER_S * seconds)
    tenants, routing = fleet_inputs(seed, rounds, work)
    launches = itertools.count()

    def phase(traced: bool, repeats: int = 1) -> dict:
        spec = fleet_spec(tenants, work, traced, work / f"checkpoints-{next(launches)}")
        server, setups, probes = launch(
            spec, work, repeats, lambda s: _probe(s, False, calibrator)
        )
        exchanges: list[Exchange] = list(probes[-1])
        window = fleet_window(tenants, rounds)
        size = max(1, rounds // FLEET_SLICES) * FLEET_REQUESTS_PER_ROUND
        segments = [window[k : k + size] for k in range(0, len(window), size)]
        interval = 1e9 / (FLEET_ROUNDS_PER_S * FLEET_REQUESTS_PER_ROUND)
        report = OpenLoopReport()
        try:
            exchanges.extend(fleet_offsets(server.conn, tenants))
            before = calibrator.measure()
            for segment in segments:
                start = clock() + 20_000_000
                for k, exchange in enumerate(segment):
                    exchange.due_ns = start + int(k * interval)
                part = server.conn.open_loop(
                    segment, window_end_ns=start + int(len(segment) * interval)
                )
                report.late_sends_over_1ms += part.late_sends_over_1ms
                report.lateness_ns += part.lateness_ns
                report.backlog_at_window_end = part.backlog_at_window_end
                after = calibrator.measure()
                scale = speed.scale(calibrator.parts, before, after)
                for exchange in segment:
                    exchange.scale = scale
                before = after
            exchanges.extend(window)
            rss = common.read_vm_hwm_mb(server.child.pid)
        finally:
            server.stop()
        behind = sum(1 for late in report.lateness_ns if late > BEHIND_MS * 1e6)
        return {"exchanges": exchanges, "segments": segments, "setups": setups,
                "rss": rss, "report": report,
                "noisy": report.late_sends_over_1ms > NOISY_SHARE * len(window),
                "fell_behind": behind > MAX_BEHIND_SHARE * len(window),
                "probes": [e for batch in probes for e in batch],
                "fit_ms_by_launch": [_median_fit_ms(batch) for batch in probes],
                "thread_env": server.thread_env}

    def check(exchanges) -> CheckResult:
        logs = {name: TenantLog(warmup) for name, warmup, _, _ in tenants}
        streams = {name: stream for name, _, stream, _ in tenants}
        primary = tenants[0][0]
        sent = {name: 0 for name in logs}
        for exchange in exchanges:
            if exchange.kind == "refit" and exchange.status == 200:
                logs[primary].events.append(("refit", None, None))
            elif exchange.kind == "ingest_tenant":
                position = sent[exchange.tenant]
                block = streams[exchange.tenant][position : position + exchange.rows]
                sent[exchange.tenant] += exchange.rows
                logs[exchange.tenant].events.append(("rows", block, _results(exchange)))
        total = CheckResult()
        for log in logs.values():
            total.merge(check_tenant(log, routing, refit_interval=FLEET_REFIT_EVERY))
        return total

    with speed.Calibrator(speed.HTTP_PARTS, speed.PROGRAM_CPU) as calibrator:
        if trace:
            phases, metrics, details, trace_ok = _traced(phase, work / "trace.json")
            return _outcome(metrics, details, phases, check, trace_ok)
        attempts = [phase(traced=False, repeats=FLEET_LAUNCHES)]
        while attempts[-1]["noisy"] and len(attempts) < FLEET_ATTEMPTS:
            attempts.append(phase(traced=False))
    measured = min(attempts, key=lambda attempt: attempt["report"].late_sends_over_1ms)
    segments = measured["segments"]
    ingests = [[e for e in part if e.kind == "ingest_tenant"] for part in segments]
    latencies = [_scaled_ms(part, "due_ns") for part in ingests]
    scrape_ms = [_scaled_ms([e for e in part if e.kind == "scrape"], "due_ns")
                 for part in segments]
    refits = [fit for attempt in attempts for fit in _probe_stats(attempt)[0]]
    # The offered rate fixes rows_per_s, so it is not scaled.
    wall = sum((max(e.done_ns for e in part) - part[0].due_ns) / 1e9 for part in segments)
    ingests = sum(ingests, [])
    metrics = {
        "rows_per_s": sum(_accepted_each(ingests)) / wall,
        "latency_p50_ms": stats.median_over(latencies, lambda p: stats.percentile(p, 0.50)),
        "latency_p99_ms": stats.percentile(sum(latencies, []), 0.99),
        "scrape_p50_ms": stats.median_over(scrape_ms, lambda p: stats.percentile(p, 0.50)),
        "fit_s": statistics.median(refits),
        "setup_s": statistics.median(attempts[0]["setups"]),
        "peak_rss_mb": measured["rss"],
    }
    report = measured["report"]
    details = {
        "latency_samples": len(ingests),
        "latency_p99_supported": stats.tail_is_supported(len(ingests), 0.99),
        "generator_lateness_p99_ms": stats.percentile(report.lateness_ns, 0.99) / 1e6,
        "generator_sends_over_1ms_late": report.late_sends_over_1ms,
        "backlog_at_window_end": report.backlog_at_window_end,
        "generator_fell_behind": measured["fell_behind"],
        "window_attempts": len(attempts),
        "late_sends_by_attempt": [a["report"].late_sends_over_1ms for a in attempts],
        "fit_ms_median_by_launch": [ms for a in attempts for ms in a["fit_ms_by_launch"]],
        "setup_samples_s": attempts[0]["setups"],
        "window_s": wall,
        "host_scale": _host_scales(segments),
        "measured_latency_p50_ms": stats.median_over(
            [_ms(e.done_ns - e.due_ns for e in part if e.kind == "ingest_tenant")
             for part in segments],
            lambda p: stats.percentile(p, 0.50)),
    }
    return _outcome(metrics, details, attempts, check, not measured["fell_behind"])
