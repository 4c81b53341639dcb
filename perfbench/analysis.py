"""From a traced run's spans to per-layer metrics, with closed books.

The server handles one request at a time on the generator's single
connection, and every request that reaches the program opens exactly one
top-level *entry* span (:data:`ENTRY_SPAN`).  Walking the top-level
spans in order therefore assigns each span to the request being served;
every span is then checked to lie inside its request's client-observed
interval ``[sent, done]``.

The measured window's wall clock splits exactly into three parts:

* idle: no request in flight (generator gaps, open-loop schedule gaps);
* top-level server span time, which equals the sum of every layer's
  self time because self times partition each top-level span;
* ``trace.unattributed_ms``: in flight but outside every server span
  (transport, JSON, asyncio).
"""

from __future__ import annotations

from collections import defaultdict

from layers import ROW_COUNTED, SPAN_NAMES
from spans import roots_of, self_times, union_length

ENTRY_SPAN = {
    "ingest": "engine.ingest_block",
    "ingest_tenant": "tenants.ingest_block",
    "scrape": "engine.metrics_text",
    "refit": "lifecycle.fit_candidate",
}


def span_names(export) -> list[str]:
    return [export["names"][i] for i in export["name_ids"]]


def assign_requests(export, exchanges) -> tuple[list[int], int]:
    """Owning exchange of every span, and the number of spans that do
    not nest inside their request (or have none)."""
    names = span_names(export)
    parents, starts, ends = export["parents"], export["starts"], export["ends"]
    producing = [k for k, e in enumerate(exchanges) if e.kind in ENTRY_SPAN]
    owner_of_root: dict[int, int] = {}
    position = -1
    for index, parent in enumerate(parents):
        if parent >= 0:
            continue
        following = position + 1
        if (
            following < len(producing)
            and names[index] == ENTRY_SPAN[exchanges[producing[following]].kind]
        ):
            position = following
        owner_of_root[index] = producing[position] if position >= 0 else -1
    owners = [owner_of_root[root] for root in roots_of(parents)]
    bad = len(producing) - (position + 1)
    for index, owner in enumerate(owners):
        if owner < 0:
            bad += 1
            continue
        exchange = exchanges[owner]
        if not exchange.sent_ns <= starts[index] <= ends[index] <= exchange.done_ns:
            bad += 1
    return owners, bad


def layer_metrics(export, keep, wall_ns: int, busy_ns: int) -> tuple[dict, dict]:
    """Per-layer metrics over the spans ``keep`` selects.

    ``keep[i]`` is True for spans of the measured window; every
    descendant of a kept top-level span must be kept with it.
    Returns the metrics and the accounting details.
    """
    names = span_names(export)
    starts, ends, parents = export["starts"], export["ends"], export["parents"]
    selfs = self_times(starts, ends, parents)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    top_ns = 0
    kept = 0
    for index, name in enumerate(names):
        if not keep[index]:
            continue
        kept += 1
        calls[name] += 1
        self_ns[name] += selfs[index]
        if parents[index] < 0:
            top_ns += ends[index] - starts[index]

    totals: dict[tuple[str, str], float] = defaultdict(float)
    refreshes = useful = 0
    pending: dict[int, bool] = {}
    for index, key, value, tag in sorted(export["marks"], key=lambda m: m[0]):
        if not keep[index]:
            continue
        totals[(names[index], key)] += value
        if key == "refresh":
            refreshes += 1
            pending[tag] = True
        elif key == "read" and pending.get(tag):
            useful += 1
            pending[tag] = False

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name in ROW_COUNTED:
        metrics[f"{name}.rows"] = totals[(name, "rows")]
    metrics["events.emitted"] = totals[("events.emit_many", "emitted")]
    metrics["lifecycle.checkpoint_bytes"] = totals[
        ("lifecycle.checkpoint", "checkpoint_bytes")
    ]
    metrics["tracker.refreshes"] = refreshes
    metrics["tracker.refreshes_read_fraction"] = (
        useful / refreshes if refreshes else 0.0
    )
    idle_ns = wall_ns - busy_ns
    unattributed_ns = busy_ns - top_ns
    metrics["trace.wall_ms"] = wall_ns / 1e6
    metrics["trace.idle_ms"] = idle_ns / 1e6
    metrics["trace.unattributed_ms"] = unattributed_ns / 1e6
    metrics["trace.spans"] = kept
    self_total = sum(self_ns.values())
    books = {
        "self_ms_total": self_total / 1e6,
        "top_level_ms": top_ns / 1e6,
        "residual_ns": wall_ns - (self_total + unattributed_ns + idle_ns),
    }
    return metrics, books


def busy_and_wall(exchanges) -> tuple[int, int]:
    """``(busy, wall)``: in-flight union and first-send-to-last-done span."""
    busy = union_length((e.sent_ns, e.done_ns) for e in exchanges)
    wall = max(e.done_ns for e in exchanges) - min(e.sent_ns for e in exchanges)
    return busy, wall


def growth_series(export, keep, labels: dict[str, str]) -> list[dict]:
    """History size, checkpoint size and duration at every refit and
    checkpoint inside the kept spans, in time order."""
    names = span_names(export)
    starts, ends = export["starts"], export["ends"]
    points: dict[int, dict] = {}
    for index, key, value, tag in export["marks"]:
        if not keep[index] or names[index] not in (
            "lifecycle.fit_candidate",
            "lifecycle.checkpoint",
        ):
            continue
        point = points.setdefault(
            index,
            {
                "kind": "refit" if names[index] == "lifecycle.fit_candidate" else "checkpoint",
                "tenant": labels.get(str(tag), "?"),
                "at_ms": starts[index] / 1e6,
                "ms": (ends[index] - starts[index]) / 1e6,
            },
        )
        point[key] = value
    return [points[index] for index in sorted(points)]
