"""Hand-rolled Prometheus metrics for the detection service.

The container ships no ``prometheus_client``, and the service needs only
the text exposition format (version 0.0.4) over three instrument kinds —
counter, gauge, histogram — so this module implements exactly those on
the stdlib.  Rendering is deterministic: metrics appear in registration
order, labeled children in first-use order, and values format through
``repr`` (shortest round-trip), which is what lets the golden-file test
pin the exposition byte for byte.

Everything on a line except its sample value is fixed text: each metric
formats its ``# HELP``/``# TYPE`` lines when it is built, a labeled
child its ``name{label="value"} `` prefix the first time it is rendered,
and a histogram its bucket prefixes once, so a render formats only the
sample values.
"""

from __future__ import annotations

import math
import threading

from repro.exceptions import ServiceError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Ingest latencies at repo scales sit well under a millisecond; the
#: buckets stretch from 50 µs to 1 s so both the einsum scoring path and
#: a pathological stall land somewhere informative.
DEFAULT_LATENCY_BUCKETS = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via ``repr``.

    Most samples are counts, so the integer form is tried first; NaN
    and the infinities are not integers and fall through to their
    spellings."""
    value = float(value)
    if value.is_integer():
        return str(int(value)) if -1e15 < value < 1e15 else repr(value)
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(value)


def _labeled_prefix(name: str, label: str, value: str) -> str:
    """The fixed text ``name{label="value"} `` of a labeled sample."""
    return f'{name}{{{label}="{_escape_label(value)}"}} '


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Metric:
    """Shared name/help/type envelope."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ServiceError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._header = (
            f"# HELP {name} {help_text}",
            f"# TYPE {name} {self.kind}",
        )
        #: The text before an unlabeled sample's value.
        self._prefix = name + " "

    def header(self) -> list[str]:
        return list(self._header)

    def render(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count, optionally split by one label."""

    kind = "counter"

    def __init__(
        self, name: str, help_text: str, label: str | None = None
    ) -> None:
        super().__init__(name, help_text)
        self._label = label
        self._value = 0.0
        self._children: dict[str, float] = {}
        self._child_prefixes: dict[str, str] = {}

    def inc(self, amount: float = 1.0, label_value: str | None = None) -> None:
        if amount < 0:
            raise ServiceError("counters only go up")
        with self._lock:
            if label_value is None:
                if self._label is not None:
                    raise ServiceError(
                        f"counter {self.name} requires a {self._label!r} label"
                    )
                self._value += amount
            else:
                if self._label is None:
                    raise ServiceError(
                        f"counter {self.name} takes no labels"
                    )
                self._children[label_value] = (
                    self._children.get(label_value, 0.0) + amount
                )

    def value(self, label_value: str | None = None) -> float:
        with self._lock:
            if label_value is None and self._label is None:
                return self._value
            return self._children.get(label_value, 0.0)

    def total(self) -> float:
        """Sum over all children (or the bare value when unlabeled)."""
        with self._lock:
            if self._label is None:
                return self._value
            return sum(self._children.values())

    def render(self) -> list[str]:
        lines = [*self._header]
        with self._lock:
            if self._label is None:
                lines.append(self._prefix + _format_value(self._value))
                return lines
            prefixes = self._child_prefixes
            for label_value, count in self._children.items():
                prefix = prefixes.get(label_value)
                if prefix is None:
                    prefix = prefixes[label_value] = _labeled_prefix(
                        self.name, self._label, label_value
                    )
                lines.append(prefix + _format_value(count))
        return lines


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        with self._lock:
            value = self._value
        return [*self._header, self._prefix + _format_value(value)]


class Histogram(_Metric):
    """Cumulative-bucket histogram (fixed upper bounds)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ServiceError(
                "histogram buckets must be a strictly increasing, "
                "non-empty sequence"
            )
        self._bounds = bounds
        bucket = f"{name}_bucket"
        #: One prefix per line: each bucket, ``+Inf``, the sum, the count.
        self._line_prefixes = (
            *(_labeled_prefix(bucket, "le", _format_value(b)) for b in bounds),
            _labeled_prefix(bucket, "le", "+Inf"),
            f"{name}_sum ",
            f"{name}_count ",
        )
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[index] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def render(self) -> list[str]:
        with self._lock:
            # ``observe`` increments every bucket whose bound admits the
            # value, so the stored counts are already cumulative.
            counts = [*self._counts, self._count]
            total = self._sum
        values = [*map(str, counts), _format_value(total), str(counts[-1])]
        return [*self._header, *map(str.__add__, self._line_prefixes, values)]


class MetricsRegistry:
    """Ordered collection of metrics with one-call text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ServiceError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, label: str | None = None
    ) -> Counter:
        return self.register(Counter(name, help_text, label=label))

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self.register(Gauge(name, help_text))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help_text, buckets=buckets))

    def __getitem__(self, name: str) -> _Metric:
        with self._lock:
            return self._metrics[name]

    def render(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
