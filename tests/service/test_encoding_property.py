"""The segment encoder writes the bytes ``json.dumps`` would.

``POST /ingest`` and ``POST /ingest/<tenant>`` format their 200 bodies
straight from the engine's :class:`~repro.service.engine.BlockSegment`
arrays (:func:`~repro.service.http.encode_ingest_response`) instead of
building one dict per row.  The property pins those bytes to the legacy
payload — ``json.dumps(payload, sort_keys=True)`` over
``BlockResult.outcomes`` — for random streams that exercise every
branch of the encoder:

* a routing matrix, so flagged rows carry an identification (and an
  OD pair whose node names need JSON escaping);
* synchronous refits due inside a block, so one block holds several
  segments with different thresholds and model versions;
* mid-block rejects (NaN and out-of-range link counts), whose accepted
  prefix still encodes;
* rows at ``±MAX_LINK_COUNT``, the largest magnitude validation admits;
* alarm storms, runs of rows spiked along random flows, so blocks hold
  many identified alarms in a row.

The same streams also go through a twin daemon one row per request:
the block responses, the engines' event logs and every counter must
equal that one-row route's, and every served identification must equal
the frozen pre-state identification arithmetic run on its row alone
under the version that scored it.
"""

import itertools
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing.routing_matrix import RoutingMatrix
from repro.service import (
    MAX_LINK_COUNT,
    BlockResult,
    BlockSegment,
    DetectionService,
    EventLog,
    ServiceConfig,
)
from repro.service.http import ServiceHTTPServer, encode_ingest_response
from repro.service.tenants import MultiTenantService
from tests.properties.test_identification_properties import (
    frozen_identify_block,
)
from tests.service.conftest import refit_version


def legacy_body(result) -> str:
    """The per-row payload the route served before segment encoding."""
    alarms = [outcome for outcome in result.outcomes if outcome.flag]
    return json.dumps(
        {
            "accepted": result.accepted,
            "alarms": len(alarms),
            "alarm_bins": [outcome.bin for outcome in alarms],
            "results": [outcome.to_json() for outcome in result.outcomes],
        },
        sort_keys=True,
    )


@st.composite
def served_streams(draw):
    """(warmups, stream, routing, refit_interval, chunk sizes)."""
    m = draw(st.integers(3, 7))
    flows = draw(st.integers(2, 6))
    warmup_rows = draw(st.integers(m + 4, 20))
    stream_rows = draw(st.integers(12, 40))
    rank = draw(st.integers(1, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = 2 * warmup_rows + stream_rows
    base = rng.normal(size=(total, rank)) @ rng.normal(size=(rank, m))
    base += rng.normal(scale=1e-3, size=base.shape)
    warmups = (base[:warmup_rows], base[warmup_rows : 2 * warmup_rows])
    stream = base[2 * warmup_rows :]
    matrix = (rng.random((m, flows)) < 0.5).astype(float)
    matrix[rng.integers(0, m, size=flows), np.arange(flows)] = 1.0
    routing = RoutingMatrix(
        matrix,
        [f"link{i}" for i in range(m)],
        [(f"pop{j}", f"zürich-{j}") for j in range(flows)],
    )
    # Spikes along a flow's links, so rows are flagged and identified.
    for _ in range(draw(st.integers(1, 4))):
        row = int(rng.integers(0, stream_rows))
        stream[row] += 50.0 * matrix[:, int(rng.integers(0, flows))]
    if draw(st.booleans()):
        # An alarm storm: a run of rows, each spiked along a flow.
        lo = int(rng.integers(0, stream_rows // 2))
        hi = int(rng.integers(lo + stream_rows // 4, stream_rows + 1))
        spiked = rng.integers(0, flows, size=hi - lo)
        stream[lo:hi] += 50.0 * matrix[:, spiked].T
    poisons = (np.nan, 1e300, MAX_LINK_COUNT, -MAX_LINK_COUNT)
    for _ in range(draw(st.integers(0, 3))):
        row = int(rng.integers(0, stream_rows))
        stream[row, int(rng.integers(0, m))] = poisons[
            int(rng.integers(0, len(poisons)))
        ]
    refit_interval = draw(st.integers(3, 9))
    chunks = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    return warmups, stream, routing, refit_interval, chunks


def chunked(stream, sizes):
    """Split ``stream`` into blocks cycling through ``sizes``."""
    position, turn = 0, 0
    while position < stream.shape[0]:
        size = sizes[turn % len(sizes)]
        yield stream[position : position + size]
        position += size
        turn += 1


def request_body(block) -> bytes:
    # json.dumps writes NaN as a bare token, which json.loads accepts.
    return json.dumps({"rows": block.tolist()}).encode("utf-8")


def served(warmups, routing, config):
    """A single-tenant daemon and a two-tenant one over fresh engines
    with deterministic event clocks: ``(engines, fleet, routes)``."""

    def engine(warmup):
        return DetectionService.from_warmup(
            warmup,
            routing=routing,
            config=config,
            event_log=EventLog(clock=itertools.count().__next__, tail_size=4096),
        )

    single = engine(warmups[0])
    fleet = MultiTenantService(
        {"a": engine(warmups[0]), "b/c": engine(warmups[1])}
    )
    fleet_server = ServiceHTTPServer.for_tenants(fleet)
    routes = (
        (ServiceHTTPServer(single), "/ingest"),
        (fleet_server, "/ingest/a"),
        (fleet_server, "/ingest/b%2Fc"),
    )
    engines = (single, fleet.service("a"), fleet.service("b/c"))
    return engines, fleet, routes


def counters(service) -> str:
    """The exposition minus the wall-clock latency histogram."""
    return "\n".join(
        line
        for line in service.metrics_text().splitlines()
        if "repro_ingest_latency_seconds" not in line
    )


def assert_frozen_identification(service, rows, block, result):
    """Each served alarm names the flow, magnitude and bytes the frozen
    arithmetic finds for its row alone, under the version that scored
    it: an offline refit of that version's recorded slice of ``rows``
    (the warmup, then every row the service accepted)."""
    summaries = {
        summary["version"]: summary
        for summary in service.lifecycle.version_summaries()
    }
    models = {
        version: refit_version(
            summaries[version], rows, service.warmup_rows
        )[0].model
        for version in {
            outcome.model_version
            for outcome in result.outcomes
            if outcome.flow_index is not None
        }
    }
    theta = service._routing.normalized_columns()
    ratios = service._routing.quantification_ratios()
    for offset, outcome in enumerate(result.outcomes):
        if outcome.flow_index is None:
            continue
        winners, magnitudes, _, _ = frozen_identify_block(
            models[outcome.model_version], theta, block[offset]
        )
        flow = int(winners[0])
        assert outcome.flow_index == flow
        assert outcome.magnitude == float(magnitudes[0])
        assert outcome.estimated_bytes == float(magnitudes[0]) * float(
            ratios[flow]
        )


@settings(max_examples=40, deadline=None)
@given(served_streams())
def test_ingest_responses_are_the_legacy_bytes(case):
    warmups, stream, routing, refit_interval, chunks = case
    config = ServiceConfig(
        refit_interval=refit_interval, synchronous_refit=True
    )
    engines, fleet, routes = served(warmups, routing, config)
    twin_engines, twin_fleet, twin_routes = served(warmups, routing, config)
    captured = []

    def capture(ingest_block):
        def spy(*args, **kwargs):
            captured.append(ingest_block(*args, **kwargs))
            return captured[-1]

        return spy

    engines[0].ingest_block = capture(engines[0].ingest_block)
    fleet.ingest_block = capture(fleet.ingest_block)
    for (server, path), (twin, twin_path), service, warmup in zip(
        routes, twin_routes, engines, (warmups[0], *warmups)
    ):
        accepted = [warmup]
        for block in chunked(stream, chunks):
            status, payload, _ = server._dispatch(
                "POST", path, request_body(block)
            )
            (result,) = captured
            captured.clear()
            expected = legacy_body(result)
            # A rejected block answers 400, but its accepted prefix is
            # still segments: the encoder must hold there too.
            assert encode_ingest_response(result) == expected
            accepted.append(block[: result.accepted])
            assert_frozen_identification(
                service, np.vstack(accepted), block, result
            )
            # The one-row route: the accepted rows one request each,
            # then the rejected row, if any.
            sent = block[: result.accepted + (result.rejected is not None)]
            rows = []
            for row in sent:
                twin_status, twin_payload, _ = twin._dispatch(
                    "POST", twin_path, request_body(row[None, :])
                )
                if twin_status == 200:
                    rows.extend(json.loads(twin_payload)["results"])
            if result.rejected is None:
                assert status == 200
                assert payload.encode("utf-8") == expected.encode("utf-8")
                flagged = [row["bin"] for row in rows if row["flag"]]
                one_row = json.dumps(
                    {
                        "accepted": len(rows),
                        "alarms": len(flagged),
                        "alarm_bins": flagged,
                        "results": rows,
                    },
                    sort_keys=True,
                )
                assert payload == one_row
            else:
                assert status == 400
                assert payload["accepted"] == result.accepted == len(rows)
                assert twin_status == 400
                assert payload["error"] == twin_payload["error"]
                assert payload["reason"] == twin_payload["reason"]
    for service, twin in zip(engines, twin_engines):
        assert service.events.tail() == twin.events.tail()
        assert counters(service) == counters(twin)
    assert fleet.metrics_text() == twin_fleet.metrics_text()


def test_strategy_reaches_every_encoder_branch():
    """Across a fixed sample the streams produce several segments with
    different thresholds in one block, identified alarms, segments of
    several identified alarms (storms), rejects, and admitted rows at
    the bound — the mutation-checked cases."""
    seen = {"multi": 0, "identified": 0, "storm": 0, "rejected": 0, "bound": 0}

    @settings(max_examples=40, deadline=None, database=None)
    @given(served_streams())
    def sample(case):
        warmups, stream, routing, refit_interval, chunks = case
        service = DetectionService.from_warmup(
            warmups[0],
            routing=routing,
            config=ServiceConfig(
                refit_interval=refit_interval, synchronous_refit=True
            ),
        )
        for block in chunked(stream, chunks):
            result = service.ingest_block(block)
            thresholds = {segment.threshold for segment in result.segments}
            seen["multi"] += len(thresholds) > 1
            identified = [
                segment.num_alarms
                for segment in result.segments
                if segment.flow_indices is not None
            ]
            seen["identified"] += bool(identified)
            seen["storm"] += any(alarms >= 3 for alarms in identified)
            seen["rejected"] += result.rejected is not None
            accepted = block[: result.accepted]
            seen["bound"] += bool(
                (np.abs(accepted) == MAX_LINK_COUNT).any()
            )

    sample()
    assert all(count > 0 for count in seen.values()), seen


def test_non_finite_values_are_spelled_as_json_dumps_spells_them():
    """Admitted rows score finite, but the encoding contract holds for
    any segment: NaN and infinities come out as ``json.dumps`` writes
    them, not as ``float.__repr__`` would."""
    segment = BlockSegment(
        start_bin=7,
        spe=np.array([np.inf, 1.5, np.nan, -np.inf]),
        flags=np.zeros(4, dtype=bool),
        threshold=float("nan"),
        model_version=3,
    )
    result = BlockResult(segments=(segment,))
    assert encode_ingest_response(result) == legacy_body(result)
