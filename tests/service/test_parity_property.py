"""The service's load-bearing guarantee, property-tested.

Any random row stream pushed through the service raises the alarms of a
batch ``DetectionPipeline.detect`` over the assembled matrix — SPE,
threshold, and flagged bins bit for bit — including across hot-swap
boundaries (synchronous refits make the boundary a deterministic
function of the stream) and under concurrent multi-threaded ingestion.

The drift-tracker gauges belong to the same chain: they are a function
of the active version and the rows, equal across request sizes,
restores and the way a swap was made.

Two pillars make this exact rather than approximate, each pinned here:

* the canonical row-decomposable SPE kernel — scoring a row alone is
  bit-identical to scoring it inside any block (``np.einsum``, not
  BLAS, whose blocking changes summation order with operand shape);
* sufficient-statistics refits — a service refit from row-by-row merged
  statistics equals the monolithic fit on the concatenated prefix.
"""

import itertools
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IngestError
from repro.pipeline import DetectionPipeline
from repro.routing.routing_matrix import RoutingMatrix
from repro.service import (
    MAX_LINK_COUNT,
    DetectionService,
    EventLog,
    ServiceConfig,
)


@st.composite
def row_streams(draw, min_stream: int = 8, max_stream: int = 40):
    """A random (warmup, stream) pair with occasional spike rows."""
    m = draw(st.integers(3, 8))
    warmup_rows = draw(st.integers(max(8, m + 2), 24))
    stream_rows = draw(st.integers(min_stream, max_stream))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, m))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(warmup_rows + stream_rows, rank)) @ rng.normal(
        size=(rank, m)
    )
    base += rng.normal(scale=1e-3, size=base.shape)  # full-rank noise floor
    # Plant a few spikes in the stream so alarms actually fire.
    num_spikes = draw(st.integers(0, 3))
    for _ in range(num_spikes):
        position = warmup_rows + int(rng.integers(0, stream_rows))
        base[position] += rng.normal(scale=50.0, size=m)
    return base[:warmup_rows], base[warmup_rows:]


def rank_cap(stream) -> int:
    """A normal-rank cap that leaves every model a residual subspace to
    alarm in: uncapped, nearly every ``row_streams`` draw fits a
    full-rank model, which never alarms."""
    return max(1, stream.shape[1] - 2)


def batch_reference(warmup, stream, boundaries, max_normal_rank=None):
    """Offline refits at the service-reported swap boundaries."""
    history = np.vstack([warmup, stream])
    spe = np.empty(stream.shape[0])
    flags = np.empty(stream.shape[0], dtype=bool)
    thresholds = np.empty(stream.shape[0])
    for version in boundaries:
        lo = version.activated_at_row - warmup.shape[0]
        hi = (
            version.retired_at_row - warmup.shape[0]
            if version.retired_at_row is not None
            else stream.shape[0]
        )
        if hi <= lo:
            continue
        pipeline = DetectionPipeline(
            svd_method="gram", max_normal_rank=max_normal_rank
        ).fit(history[: version.trained_rows])
        result = pipeline.detect(stream[lo:hi])
        spe[lo:hi] = result.spe
        flags[lo:hi] = result.flags
        thresholds[lo:hi] = result.threshold
    return spe, flags, thresholds


@settings(max_examples=30, deadline=None)
@given(row_streams(), st.integers(1, 9))
def test_spe_scoring_is_row_decomposable(data, chunk):
    """The canonical kernel promise in ``SubspaceModel.spe``: scoring a
    block row-by-row, in chunks of any size, or whole is bitwise one
    computation.  This is the invariance every parity test below rests
    on; without it the service could only match batch detection
    approximately."""
    warmup, stream = data
    model = DetectionPipeline(svd_method="gram").fit(warmup).detector.model
    whole = model.spe(stream)
    per_row = np.array([model.spe(row[None, :])[0] for row in stream])
    assert np.array_equal(per_row, whole)
    chunked = np.concatenate(
        [
            model.spe(stream[start : start + chunk])
            for start in range(0, stream.shape[0], chunk)
        ]
    )
    assert np.array_equal(chunked, whole)


@settings(max_examples=25, deadline=None)
@given(row_streams())
def test_streamed_alarms_equal_batch_alarms_bitwise(data):
    """Single fitted model: per-row service scoring == block detect."""
    warmup, stream = data
    cap = rank_cap(stream)
    service = DetectionService.from_warmup(
        warmup, config=ServiceConfig(max_normal_rank=cap)
    )
    outcomes = [service.ingest_row(row) for row in stream]
    batch = (
        DetectionPipeline(svd_method="gram", max_normal_rank=cap)
        .fit(warmup)
        .detect(stream)
    )
    assert np.array_equal(
        np.array([o.spe for o in outcomes]), batch.spe
    )
    assert all(o.threshold == batch.threshold for o in outcomes)
    assert [o.bin for o in outcomes if o.flag] == [
        int(b) for b in batch.anomalous_bins
    ]


@settings(max_examples=20, deadline=None)
@given(row_streams(), st.integers(4, 12))
def test_parity_survives_hot_swaps_mid_stream(data, refit_interval):
    """Synchronous auto-refits partition the stream; each segment must
    match an offline refit at the service-reported boundary bitwise."""
    warmup, stream = data
    cap = rank_cap(stream)
    service = DetectionService.from_warmup(
        warmup,
        config=ServiceConfig(
            refit_interval=refit_interval,
            synchronous_refit=True,
            max_normal_rank=cap,
        ),
    )
    outcomes = [service.ingest_row(row) for row in stream]
    history = service.lifecycle.version_history()
    if stream.shape[0] >= refit_interval:
        assert len(history) > 1  # at least one swap actually happened
    spe, flags, thresholds = batch_reference(
        warmup, stream, history, max_normal_rank=cap
    )
    assert np.array_equal(np.array([o.spe for o in outcomes]), spe)
    assert np.array_equal(
        np.array([o.threshold for o in outcomes]), thresholds
    )
    assert [o.bin for o in outcomes if o.flag] == [
        int(b) for b in np.nonzero(flags)[0]
    ]


def failing_at(pattern):
    """A refit hook that passes the bootstrap fit, then fails refit
    attempt ``i`` when ``pattern[i % len(pattern)]`` is set."""
    calls = itertools.count(-1)

    def hook():
        attempt = next(calls)
        if attempt >= 0 and pattern[attempt % len(pattern)]:
            raise RuntimeError(f"injected refit failure {attempt}")

    return hook


def random_routing(rng, m):
    """A routing matrix of 2-6 flows over ``m`` links, each flow on at
    least one link."""
    flows = int(rng.integers(2, 7))
    matrix = (rng.random((m, flows)) < 0.5).astype(float)
    matrix[rng.integers(0, m, size=flows), np.arange(flows)] = 1.0
    return RoutingMatrix(
        matrix,
        [f"link{i}" for i in range(m)],
        [(f"pop{j}", f"pop{j + 1}") for j in range(flows)],
    )


def served_state(service) -> str:
    """The exposition minus the wall-clock latency histogram."""
    return "\n".join(
        line
        for line in service.metrics_text().splitlines()
        if "repro_ingest_latency_seconds" not in line
    )


@settings(max_examples=15, deadline=None)
@given(
    row_streams(),
    st.integers(4, 12),
    st.integers(0, 2**32 - 1),
)
def test_block_ingest_matches_per_row_bitwise(data, refit_interval, seed):
    """``ingest_block`` == an ``ingest_row`` replay, bit for bit — under
    random chunkings, across the synchronous hot-swap boundaries the
    chunks straddle, and through mid-block rejects (poisoned NaN rows
    and link counts past ``MAX_LINK_COUNT``): same outcome per accepted
    row (identification included), same model-swap history, same reject
    reasons at the same stream positions, same event log and counters.
    Rows at exactly ``±MAX_LINK_COUNT`` are admitted and folded into the
    refits.

    The stream may be alarm-heavy (a run of rows spiked along random
    flows), and the synchronous refits fail at random due points: a
    failed refit is counted and logged, the active version keeps
    scoring, and the next attempt falls due ``refit_interval`` rows
    later.

    Some rows are replaced by a short row (which may also hold a bad
    value), a string or a 2-D row, and some bins by a non-numeric entry.
    A multi-row block holding one cannot form one array, so it is read
    row by row, while the one-row replay of a short row is a
    rectangular block: the property compares the row scan's check
    order (structure, then values, then the bin) with the rectangular
    validator's."""
    warmup, stream = data
    rng = np.random.default_rng(seed)
    stream = stream.copy()
    routing = random_routing(rng, stream.shape[1])
    if rng.random() < 0.5:
        # An alarm storm: every row from ``lo`` on spikes along a flow.
        lo = int(rng.integers(0, stream.shape[0] // 2))
        flows = rng.integers(0, routing.num_flows, size=stream.shape[0] - lo)
        stream[lo:] += 50.0 * routing.matrix[:, flows].T
    poisons = (
        np.nan,
        np.inf,
        1e300,
        -np.nextafter(MAX_LINK_COUNT, np.inf),
        MAX_LINK_COUNT,
        -MAX_LINK_COUNT,
    )
    for _ in range(int(rng.integers(0, 4))):
        row = int(rng.integers(0, stream.shape[0]))
        link = int(rng.integers(0, stream.shape[1]))
        stream[row, link] = poisons[int(rng.integers(0, len(poisons)))]
    rows = list(stream)
    for _ in range(int(rng.integers(0, 4))):
        index = int(rng.integers(0, len(rows)))
        kind = int(rng.integers(0, 4))
        if kind < 2:
            short = stream[index][:-1].copy()
            if rng.random() < 0.5:
                link = int(rng.integers(0, short.shape[0]))
                short[link] = poisons[int(rng.integers(0, len(poisons)))]
            rows[index] = short
        elif kind == 2:
            rows[index] = "not a row"
        else:
            rows[index] = stream[index][None, :]
    # Non-numeric bins, ``None`` left out: ``ingest_row`` reads it as
    # "no bin".  Every other row carries the next expected bin.
    bad_bins = {}
    use_bins = rng.random() < 0.5
    if use_bins:
        for _ in range(int(rng.integers(0, 3))):
            index = int(rng.integers(0, len(rows)))
            bad_bins[index] = ("x", [0], {}, float("nan"))[
                int(rng.integers(0, 4))
            ]
    config = ServiceConfig(
        refit_interval=refit_interval,
        synchronous_refit=True,
        max_normal_rank=rank_cap(stream),
    )
    failures = (rng.random(8) < 0.5).tolist()

    def serve():
        return DetectionService.from_warmup(
            warmup,
            routing=routing,
            config=config,
            event_log=EventLog(clock=itertools.count().__next__, tail_size=4096),
            refit_hook=failing_at(failures),
        )

    row_service, block_service = serve(), serve()

    row_outcomes, row_rejects = [], []
    bins = [] if use_bins else None
    for index, row in enumerate(rows):
        bin_id = None
        if use_bins:
            bin_id = bad_bins.get(index, row_service.rows_ingested)
            bins.append(bin_id)
        try:
            row_outcomes.append(row_service.ingest_row(row, bin_id=bin_id))
        except IngestError as err:
            row_rejects.append((index, err.reason, str(err)))

    block_outcomes, block_rejects = [], []
    position = 0
    while position < len(rows):
        size = int(rng.integers(1, 9))
        result = block_service.ingest_block(
            rows[position : position + size],
            bins=None if bins is None else bins[position : position + size],
        )
        block_outcomes.extend(result.outcomes)
        if result.rejected is not None:
            # Skip the rejected row, exactly as the per-row loop does.
            rejected_at = position + result.rejected_index
            block_rejects.append(
                (rejected_at, result.rejected.reason, str(result.rejected))
            )
            position = rejected_at + 1
        else:
            position += size

    assert block_rejects == row_rejects
    assert [o.to_json() for o in block_outcomes] == [
        o.to_json() for o in row_outcomes
    ]
    row_history = row_service.lifecycle.version_history()
    block_history = block_service.lifecycle.version_history()
    assert [
        (v.version, v.trained_rows, v.activated_at_row)
        for v in row_history
    ] == [
        (v.version, v.trained_rows, v.activated_at_row)
        for v in block_history
    ]
    assert block_service.events.tail() == row_service.events.tail()
    assert served_state(block_service) == served_state(row_service)


@settings(max_examples=10, deadline=None)
@given(row_streams())
def test_chunked_and_single_row_ingest_agree(data):
    """Posting in arbitrary chunk sizes is invariant: the per-row
    outcomes depend only on the assembled stream."""
    warmup, stream = data
    config = ServiceConfig(max_normal_rank=rank_cap(stream))
    single = DetectionService.from_warmup(warmup, config=config)
    chunked = DetectionService.from_warmup(warmup, config=config)
    left = [single.ingest_row(row) for row in stream]
    right = []
    position = 0
    rng = np.random.default_rng(stream.shape[0])
    while position < stream.shape[0]:
        size = int(rng.integers(1, 7))
        right.extend(
            chunked.ingest_rows(stream[position : position + size])
        )
        position += size
    assert [o.spe for o in left] == [o.spe for o in right]
    assert [o.flag for o in left] == [o.flag for o in right]


def test_capped_streams_alarm():
    """Across a fixed sample, at least half the capped ``row_streams``
    draws raise an alarm, so the parity properties above compare alarms
    and not only quiet rows."""
    alarmed = []

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(row_streams())
    def sample(data):
        warmup, stream = data
        service = DetectionService.from_warmup(
            warmup, config=ServiceConfig(max_normal_rank=rank_cap(stream))
        )
        alarmed.append(service.ingest_block(stream).alarms > 0)

    sample()
    assert 2 * sum(alarmed) >= len(alarmed) == 50, (sum(alarmed), len(alarmed))


def served_gauges(service) -> tuple[float, float]:
    """The two drift gauges as one scrape exposes them."""
    samples = dict(
        line.rsplit(" ", 1)
        for line in service.metrics_text().splitlines()
        if line.startswith("repro_tracker_")
    )
    return (
        float(samples["repro_tracker_threshold"]),
        float(samples["repro_tracker_drift_radians"]),
    )


@settings(max_examples=40, deadline=None)
@given(data=row_streams(min_stream=40, max_stream=200), draws=st.data())
def test_drift_gauges_are_a_function_of_the_rows(drift_replay, data, draws):
    """Both drift gauges are bitwise equal across per-row ingest,
    random request sizes (1-60) and a service restored from a
    checkpoint at a random row — under synchronous refits and an
    optional ``lifecycle.refit()`` made behind the engine at a random
    row — and equal the replay of the rule: seed from the active
    version, then fold each whole 36-row interval of warmup and
    accepted rows from its ``activated_at_row``."""
    warmup, stream = data
    total = stream.shape[0]
    config = ServiceConfig(
        refit_interval=draws.draw(st.sampled_from([None, 45, 90])),
        synchronous_refit=True,
    )
    sizes = st.lists(st.integers(1, 60), min_size=1, max_size=8)
    block_sizes, restored_sizes = draws.draw(sizes), draws.draw(sizes)
    restore_at = draws.draw(st.one_of(st.none(), st.integers(0, total)))
    behind_at = draws.draw(st.one_of(st.none(), st.integers(0, total)))

    def serve(sizes, workdir=None):
        """Ingest the stream in requests of ``sizes`` (cycled), split
        at the restore and behind-the-engine rows."""
        service = DetectionService.from_warmup(warmup, config=config)
        requests = itertools.cycle(sizes)
        position = 0
        stops = {total, behind_at}
        if workdir is not None:
            stops.add(restore_at)
        for stop in sorted(stops - {None}):
            while position < stop:
                size = min(next(requests), stop - position)
                block = stream[position : position + size]
                assert service.ingest_block(block).accepted == size
                position += size
            if workdir is not None and stop == restore_at:
                writer = served_gauges(service)
                path = Path(workdir) / "service.ckpt"
                service.checkpoint(path)
                service = DetectionService.from_checkpoint(path, config=config)
                assert served_gauges(service) == writer
            if stop == behind_at:
                service.lifecycle.refit()
        return service

    per_row = serve([1])
    block = serve(block_sizes)
    with tempfile.TemporaryDirectory() as workdir:
        restored = serve(restored_sizes, workdir)
    expected = drift_replay(
        per_row.lifecycle.current, np.vstack([warmup, stream])
    )
    assert served_gauges(per_row) == expected
    assert served_gauges(block) == expected
    assert served_gauges(restored) == expected


class TestConcurrentIngestion:
    @pytest.mark.parametrize("num_threads", [4])
    def test_parity_across_hot_swaps_under_concurrent_ingestion(
        self, service_split, num_threads
    ):
        """Acceptance criterion: many writers, synchronous refits, and
        the accepted stream (in service order) still matches offline
        refits at the reported boundaries bit for bit."""
        dataset, warmup_rows = service_split
        warmup = dataset.link_traffic[:warmup_rows]
        stream = dataset.link_traffic[warmup_rows:]
        service = DetectionService.from_warmup(
            warmup,
            config=ServiceConfig(
                refit_interval=25, synchronous_refit=True
            ),
        )
        position = {"next": 0}
        feed_lock = threading.Lock()
        results: list[tuple[int, float, bool, float]] = []
        results_lock = threading.Lock()

        def worker():
            while True:
                with feed_lock:
                    index = position["next"]
                    if index >= stream.shape[0]:
                        return
                    position["next"] = index + 1
                    row = stream[index]
                    # Ingest inside the feed lock: rows enter in index
                    # order, so bins == indices and the assembled matrix
                    # is the original stream. Contention on the engine
                    # lock itself is still exercised by the spinning
                    # readers below.
                    outcome = service.ingest_row(row)
                with results_lock:
                    results.append(
                        (
                            outcome.bin,
                            outcome.spe,
                            outcome.flag,
                            outcome.threshold,
                        )
                    )

        stop_readers = threading.Event()

        def reader():
            while not stop_readers.is_set():
                service.metrics_text()
                service.health()

        writers = [
            threading.Thread(target=worker) for _ in range(num_threads)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        stop_readers.set()
        for thread in readers:
            thread.join(timeout=10)

        assert len(results) == stream.shape[0]
        results.sort(key=lambda item: item[0])
        assert [r[0] for r in results] == list(range(stream.shape[0]))
        history = service.lifecycle.version_history()
        assert len(history) > 1  # hot-swaps really happened mid-stream
        spe, flags, thresholds = batch_reference(warmup, stream, history)
        assert np.array_equal(np.array([r[1] for r in results]), spe)
        assert np.array_equal(
            np.array([r[3] for r in results]), thresholds
        )
        assert [r[0] for r in results if r[2]] == [
            int(b) for b in np.nonzero(flags)[0]
        ]
        assert service.health()["status"] == "ok"
