"""Self-time arithmetic and the wrappers that record spans."""

import analysis
from loadgen import Exchange
from spans import Tracer, roots_of, self_times, union_length


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20
    assert union_length([(0, 10), (2, 3), (4, 6)]) == 10


def test_self_time_subtracts_nested_children():
    # 0: [0, 100) parent of 1: [10, 40) and 2: [50, 70); 1 parents 3: [20, 30).
    starts = [0, 10, 50, 20]
    ends = [100, 40, 70, 30]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == [50, 20, 20, 10]
    assert roots_of(parents) == [0, 0, 0, 0]


def test_self_time_counts_overlapping_children_once():
    # Children from two threads overlap on [30, 40): covered = [10, 60) = 50.
    starts = [0, 10, 30]
    ends = [100, 40, 60]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == 50


def test_self_time_clips_children_to_the_parent():
    starts = [10, 0]
    ends = [20, 15]
    parents = [-1, 0]
    assert self_times(starts, ends, parents)[0] == 5


def _fake_clock():
    ticks = iter(range(0, 10_000, 10))
    return lambda: next(ticks)


class _Layer:
    def inner(self, value):
        return value + 1

    def outer(self, value):
        return self.inner(value) * 2

    @classmethod
    def build(cls, value):
        return cls().outer(value)


def test_wrappers_nest_spans_and_restore_the_originals():
    originals = (_Layer.__dict__["inner"], _Layer.__dict__["outer"], _Layer.__dict__["build"])
    tracer = Tracer(clock=_fake_clock())
    tracer.wrap(_Layer, "inner", "layer.inner")
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "build", "layer.build")
    assert _Layer.build(1) == 4
    export = tracer.export()
    names = [export["names"][i] for i in export["name_ids"]]
    assert names == ["layer.build", "layer.outer", "layer.inner"]
    assert export["parents"] == [-1, 0, 1]
    selfs = self_times(export["starts"], export["ends"], export["parents"])
    assert sum(selfs) == export["ends"][0] - export["starts"][0]
    tracer.restore()
    assert (_Layer.__dict__["inner"], _Layer.__dict__["outer"], _Layer.__dict__["build"]) == originals


def test_disabled_tracer_records_nothing():
    tracer = Tracer(clock=_fake_clock())
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        tracer.enabled = False
        assert _Layer().inner(1) == 2
        assert tracer.export()["starts"] == []
    finally:
        tracer.restore()


def _export(spans):
    names = sorted({name for name, *_ in spans})
    return {
        "names": names,
        "name_ids": [names.index(name) for name, *_ in spans],
        "starts": [start for _, start, _, _ in spans],
        "ends": [end for _, _, end, _ in spans],
        "parents": [parent for *_, parent in spans],
        "marks": [],
    }


def test_requests_own_their_spans_and_the_books_close():
    exchanges = [
        Exchange("ingest", "window", sent_ns=0, done_ns=100),
        Exchange("scrape", "window", sent_ns=120, done_ns=200),
    ]
    export = _export([
        ("engine.ingest_block", 10, 90, -1),
        ("subspace.score_block", 20, 40, 0),
        ("engine.metrics_text", 130, 180, -1),
        ("metrics.render", 182, 190, -1),
    ])
    owners, bad = analysis.assign_requests(export, exchanges)
    assert owners == [0, 0, 1, 1]
    assert bad == 0
    busy, wall = analysis.busy_and_wall(exchanges)
    assert (busy, wall) == (180, 200)
    metrics, books = analysis.layer_metrics(export, [True] * 4, wall, busy)
    assert metrics["engine.ingest_block.self_ms"] == 60 / 1e6
    assert metrics["trace.idle_ms"] == 20 / 1e6
    assert metrics["trace.unattributed_ms"] == (180 - 138) / 1e6
    assert books["residual_ns"] == 0


def test_a_span_outside_its_request_is_a_violation():
    exchanges = [Exchange("ingest", "window", sent_ns=0, done_ns=100)]
    export = _export([("engine.ingest_block", 10, 120, -1)])
    assert analysis.assign_requests(export, exchanges)[1] == 1
