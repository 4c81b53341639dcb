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
* rows at ``±MAX_LINK_COUNT``, the largest magnitude validation admits.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing.routing_matrix import RoutingMatrix
from repro.service import (
    MAX_LINK_COUNT,
    BlockResult,
    BlockSegment,
    DetectionService,
    ServiceConfig,
)
from repro.service.http import ServiceHTTPServer, encode_ingest_response
from repro.service.tenants import MultiTenantService


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


@settings(max_examples=40, deadline=None)
@given(served_streams())
def test_ingest_responses_are_the_legacy_bytes(case):
    warmups, stream, routing, refit_interval, chunks = case
    config = ServiceConfig(
        refit_interval=refit_interval, synchronous_refit=True
    )

    def engine(warmup):
        return DetectionService.from_warmup(
            warmup, routing=routing, config=config
        )

    single = engine(warmups[0])
    fleet = MultiTenantService(
        {"a": engine(warmups[0]), "b/c": engine(warmups[1])}
    )
    captured = []

    def capture(ingest_block):
        def spy(*args, **kwargs):
            captured.append(ingest_block(*args, **kwargs))
            return captured[-1]

        return spy

    single.ingest_block = capture(single.ingest_block)
    fleet.ingest_block = capture(fleet.ingest_block)
    fleet_server = ServiceHTTPServer.for_tenants(fleet)
    routes = (
        (ServiceHTTPServer(single), "/ingest"),
        (fleet_server, "/ingest/a"),
        (fleet_server, "/ingest/b%2Fc"),
    )
    for server, path in routes:
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
            if result.rejected is None:
                assert status == 200
                assert payload.encode("utf-8") == expected.encode("utf-8")
            else:
                assert status == 400
                assert payload["accepted"] == result.accepted


def test_strategy_reaches_every_encoder_branch():
    """Across a fixed sample the streams produce several segments with
    different thresholds in one block, identified alarms, rejects, and
    admitted rows at the bound — the mutation-checked cases."""
    seen = {"multi": 0, "identified": 0, "rejected": 0, "bound": 0}

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
            seen["identified"] += any(
                outcome.flow_index is not None
                for segment in result.segments
                for outcome in segment.alarms
            )
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
