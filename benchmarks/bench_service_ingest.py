"""Sustained ingest throughput of the always-on detection service.

Measures rows/second through four paths on a sprint-like dataset:

* the bare engine one row at a time (``ingest_row`` in-process, no
  transport) — each call is a one-row ``ingest_block``, so this is the
  scoring + accounting cost of an arrival that travels alone (ingest
  does no drift-telemetry work);
* the engine block path (``ingest_block``) — one fused kernel pass,
  one history append, and one buffered event write per chunk, with
  per-block p50/p99 latency recorded (about 1% of these rows alarm);
* the same blocks in an alarm storm — every row plus a
  ``STORM_SPIKE_BYTES`` spike on one link, so every row alarms and is
  identified — which is what ingest costs during a DDoS ramp or an
  outage;
* engine batch ingest (``ingest_rows``) — the same block path behind
  the raising batch API;
* the full asyncio HTTP loop over a loopback socket (multi-row posts,
  which the server now feeds through ``ingest_block``) — what an
  operator actually deploys.

It also times one ``GET /metrics`` exposition of a
``SCRAPE_TENANTS``-tenant ``MultiTenantService`` (the primary engine's
exposition, then the fleet's tenant-labeled counters, as the server
renders it), the median of ``SCRAPE_REPEATS`` renders, in process.  It
is recorded with no floor: this host's timings are too noisy for one.

Three floors are enforced:

* the in-process engine sustains well over the paper's operational
  arrival rate (one row per 5-minute bin — even a thousand parallel
  networks need only ~3 rows/s), so the service can never be the
  bottleneck of a deployment;
* ``CHUNK``-row blocks beat the one-row rate by
  **>= MIN_BLOCK_SPEEDUP** — blocks exist to amortize the per-arrival
  control plane, and this floor fails the bench if a regression
  quietly re-serializes it.  (Measured locally the block path clears
  ``TARGET_BLOCK_ROWS_PER_SEC``; the floor is relative so slow CI
  machines don't flake.)
* storm blocks keep **>= MIN_STORM_RATIO** of the ordinary block rate
  — identification reads one state per model version and alarms are
  built from arrays, so an alarm must cost about as much as scoring a
  few rows, not a hundred.  The block and storm rates are each the
  median of ``PASSES`` interleaved passes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets import build_dataset
from repro.service import DetectionService, ServiceConfig

#: rows/second the bare engine must sustain (measured ~10k+ locally).
MIN_ENGINE_ROWS_PER_SEC = 500.0

#: CHUNK-row blocks must beat the one-row engine rate by this factor.
MIN_BLOCK_SPEEDUP = 5.0

#: aspirational absolute rate for the block path (recorded, not enforced).
TARGET_BLOCK_ROWS_PER_SEC = 20_000.0

#: Storm blocks must keep this share of the ordinary block rate: 30%
#: below the lowest of the 0.26-0.31 measured when the floor was set,
#: on a 2-vCPU VM with one BLAS thread (0.05 when every alarm rebuilt
#: its identification arithmetic).
MIN_STORM_RATIO = 0.17

#: The storm: this many bytes added to one link of every row.
STORM_SPIKE_BYTES = 5e8
STORM_LINK = 0

#: Interleaved ordinary/storm block passes; each rate is the median.
PASSES = 3

#: Tenants behind the timed exposition, and the renders it is timed over.
SCRAPE_TENANTS = 16
SCRAPE_REPEATS = 200

WARMUP_ROWS = 720
STREAM_ROWS = 1000
HTTP_ROWS = 300
CHUNK = 50


def _build_stream():
    dataset = build_dataset("sprint-1")
    traffic = dataset.link_traffic
    if traffic.shape[0] < WARMUP_ROWS + STREAM_ROWS:
        reps = -(-(WARMUP_ROWS + STREAM_ROWS) // traffic.shape[0])
        traffic = np.vstack([traffic] * reps)
    return (
        dataset,
        traffic[:WARMUP_ROWS],
        traffic[WARMUP_ROWS : WARMUP_ROWS + STREAM_ROWS],
    )


def _fresh_service(dataset, warmup) -> DetectionService:
    return DetectionService.from_warmup(
        warmup,
        routing=dataset.routing,
        config=ServiceConfig(),
    )


def measure_ingest() -> dict[str, float]:
    dataset, warmup, stream = _build_stream()

    service = _fresh_service(dataset, warmup)
    begin = time.perf_counter()
    for row in stream:
        service.ingest_row(row)
    per_row_s = time.perf_counter() - begin

    # Block path: one ingest_block per CHUNK rows, per-block latency
    # sampled so the artifact records the tail, not just the mean.
    # Ordinary and storm passes alternate so both see the same host.
    storm = stream.copy()
    storm[:, STORM_LINK] += STORM_SPIKE_BYTES
    ordinary_passes, storm_passes = [], []
    for _ in range(PASSES):
        ordinary_passes.append(_block_pass(_fresh_service(dataset, warmup), stream))
        storm_passes.append(_block_pass(_fresh_service(dataset, warmup), storm))
    block_latencies, block_alarms = _median_pass(ordinary_passes)
    storm_latencies, storm_alarms = _median_pass(storm_passes)
    assert storm_alarms == stream.shape[0], "every storm row must alarm"
    block_s = float(np.sum(block_latencies))
    storm_rows_per_sec = stream.shape[0] / float(np.sum(storm_latencies))

    service = _fresh_service(dataset, warmup)
    begin = time.perf_counter()
    for start in range(0, stream.shape[0], CHUNK):
        service.ingest_rows(stream[start : start + CHUNK])
    batch_s = time.perf_counter() - begin

    http_rows_per_sec = _measure_http(dataset, warmup, stream[:HTTP_ROWS])
    scrape_s, exposition_lines = _measure_scrape(warmup, stream[:CHUNK])

    engine_rows_per_sec = stream.shape[0] / per_row_s
    block_rows_per_sec = stream.shape[0] / block_s
    return {
        "num_links": int(dataset.num_links),
        "warmup_rows": WARMUP_ROWS,
        "stream_rows": STREAM_ROWS,
        "block_rows": CHUNK,
        "engine_rows_per_sec": engine_rows_per_sec,
        "engine_block_rows_per_sec": block_rows_per_sec,
        "engine_batch_rows_per_sec": stream.shape[0] / batch_s,
        "block_ingest_p50_seconds": float(
            np.quantile(block_latencies, 0.50)
        ),
        "block_ingest_p99_seconds": float(
            np.quantile(block_latencies, 0.99)
        ),
        "block_speedup": block_rows_per_sec / engine_rows_per_sec,
        "block_alarm_fraction": block_alarms / stream.shape[0],
        "engine_storm_rows_per_sec": storm_rows_per_sec,
        "storm_ratio": storm_rows_per_sec / block_rows_per_sec,
        "storm_spike_bytes": STORM_SPIKE_BYTES,
        "http_rows_per_sec": http_rows_per_sec,
        "scrape_tenants": SCRAPE_TENANTS,
        "scrape_render_p50_seconds": scrape_s,
        "exposition_lines": exposition_lines,
        "min_engine_rows_per_sec": MIN_ENGINE_ROWS_PER_SEC,
        "min_block_speedup": MIN_BLOCK_SPEEDUP,
        "min_storm_ratio": MIN_STORM_RATIO,
        "target_block_rows_per_sec": TARGET_BLOCK_ROWS_PER_SEC,
    }


def _block_pass(service, rows) -> tuple[list[float], int]:
    """Per-block latencies and alarms of one pass over ``rows``."""
    latencies, alarms = [], 0
    for start in range(0, rows.shape[0], CHUNK):
        chunk = rows[start : start + CHUNK]
        begin = time.perf_counter()
        result = service.ingest_block(chunk)
        latencies.append(time.perf_counter() - begin)
        assert result.rejected is None and result.accepted == chunk.shape[0]
        alarms += result.alarms
    return latencies, alarms


def _median_pass(passes):
    """The pass of median total time."""
    ranked = sorted(passes, key=lambda item: sum(item[0]))
    return ranked[len(ranked) // 2]


def _measure_http(dataset, warmup, stream) -> float:
    import http.client
    import json
    import threading

    from repro.service import ServiceHTTPServer

    service = _fresh_service(dataset, warmup)
    server = ServiceHTTPServer(service, host="127.0.0.1", port=0)

    import asyncio

    loop = asyncio.new_event_loop()

    async def main():
        await server.start()
        await server.serve_until_shutdown()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(main()), daemon=True
    )
    thread.start()
    while server.port == 0:
        time.sleep(0.01)

    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        begin = time.perf_counter()
        for start in range(0, stream.shape[0], CHUNK):
            body = json.dumps(
                {"rows": stream[start : start + CHUNK].tolist()}
            )
            connection.request("POST", "/ingest", body)
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        elapsed = time.perf_counter() - begin
        connection.request("POST", "/shutdown", "{}")
        connection.getresponse().read()
    finally:
        connection.close()
    thread.join(timeout=10)
    loop.close()
    return stream.shape[0] / elapsed


def _measure_scrape(warmup, block) -> tuple[float, int]:
    """Median seconds of one multi-tenant exposition, and its lines.

    Every tenant bootstraps on ``warmup`` and ingests ``block``, so each
    tenant-labeled counter has a child per tenant."""
    from repro.service.tenants import MultiTenantService

    fleet = MultiTenantService.from_warmups(
        {f"tenant-{index:02d}": warmup for index in range(SCRAPE_TENANTS)}
    )
    for tenant in fleet.tenants:
        fleet.ingest_block(tenant, block)
    primary = fleet.service(fleet.tenants[0])

    def scrape() -> str:
        return primary.metrics_text() + fleet.metrics_text()

    lines = len(scrape().splitlines())
    samples = []
    for _ in range(SCRAPE_REPEATS):
        begin = time.perf_counter()
        scrape()
        samples.append(time.perf_counter() - begin)
    fleet.close()
    return float(np.median(samples)), lines


def check_floors(stats: dict[str, float]) -> list[str]:
    """Violations (empty = pass)."""
    failures: list[str] = []
    if stats["engine_rows_per_sec"] < stats["min_engine_rows_per_sec"]:
        failures.append(
            f"engine per-row {stats['engine_rows_per_sec']:.0f} rows/s "
            f"below {stats['min_engine_rows_per_sec']:.0f}"
        )
    if stats["block_speedup"] < stats["min_block_speedup"]:
        failures.append(
            f"block path only {stats['block_speedup']:.1f}x the per-row "
            f"rate, floor is {stats['min_block_speedup']:.1f}x"
        )
    if stats["storm_ratio"] < stats["min_storm_ratio"]:
        failures.append(
            f"storm blocks only {stats['storm_ratio']:.2f}x the ordinary "
            f"block rate, floor is {stats['min_storm_ratio']:.2f}x"
        )
    if stats["http_rows_per_sec"] <= 0:
        failures.append("http loopback measured no throughput")
    return failures


def json_payload(stats: dict[str, float]) -> dict:
    return dict(stats)


def render(stats: dict[str, float]) -> str:
    return "\n".join(
        [
            "service ingest throughput "
            f"({stats['num_links']} links, {stats['stream_rows']} rows)",
            f"engine per-row:   {stats['engine_rows_per_sec']:>10.0f} rows/s",
            f"engine block:     {stats['engine_block_rows_per_sec']:>10.0f}"
            f" rows/s ({stats['block_speedup']:.1f}x per-row, "
            f"{stats['block_rows']}-row blocks, p50 "
            f"{stats['block_ingest_p50_seconds'] * 1e3:.2f} ms / p99 "
            f"{stats['block_ingest_p99_seconds'] * 1e3:.2f} ms)",
            f"engine storm:     {stats['engine_storm_rows_per_sec']:>10.0f}"
            f" rows/s (every row alarms; {stats['storm_ratio']:.2f}x the "
            f"block rate, where {stats['block_alarm_fraction']:.1%} alarm)",
            f"engine batched:   {stats['engine_batch_rows_per_sec']:>10.0f}"
            " rows/s",
            f"http loopback:    {stats['http_rows_per_sec']:>10.0f} rows/s",
            f"scrape:           {stats['scrape_render_p50_seconds'] * 1e6:>10.1f}"
            f" us p50 ({stats['exposition_lines']} lines, "
            f"{stats['scrape_tenants']} tenants + primary)",
            f"floors:           {stats['min_engine_rows_per_sec']:>10.0f}"
            " rows/s (engine per-row), "
            f"{stats['min_block_speedup']:.0f}x per-row (block path), "
            f"{stats['min_storm_ratio']:.2f}x block (storm)",
        ]
    )


def test_service_ingest_throughput(results_dir):
    from conftest import write_json_result, write_result

    stats = measure_ingest()
    write_result(results_dir, "service_ingest", render(stats))
    write_json_result(results_dir, "service_ingest", json_payload(stats))
    assert not check_floors(stats)


if __name__ == "__main__":
    from conftest import RESULTS_DIR, write_json_result

    results = measure_ingest()
    print(render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json_result(RESULTS_DIR, "service_ingest", json_payload(results))
    failures = check_floors(results)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK")
