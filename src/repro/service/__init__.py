"""Always-on detection service (§7.1 deployed continuously).

The batch pipeline diagnoses a finished measurement block; this package
keeps the same mathematics running against an unbounded row stream:

* :mod:`~repro.service.engine` — the transport-agnostic core: validate,
  score under the pinned model version, identify, fold, account.
* :mod:`~repro.service.lifecycle` — versioned models refit from merged
  sufficient statistics, hot-swapped atomically at an exact row
  boundary.
* :mod:`~repro.service.http` — the stdlib-asyncio HTTP daemon
  (``repro serve``).
* :mod:`~repro.service.metrics` — hand-rolled Prometheus instruments
  and text exposition.
* :mod:`~repro.service.events` — the structured JSONL event log.

The load-bearing guarantee, pinned by the parity property tests: any row
stream ingested through the service raises bit-identically the alarms of
a batch :class:`~repro.pipeline.pipeline.DetectionPipeline` over the
assembled matrix, including across hot-swap boundaries.  See
``docs/service.md``.
"""

from repro.service.engine import (
    ERROR_REASONS,
    MAX_LINK_COUNT,
    BlockResult,
    BlockSegment,
    DetectionService,
    RowOutcome,
    ServiceConfig,
)
from repro.service.events import EVENT_KINDS, EVENT_SCHEMA_VERSION, EventLog
from repro.service.http import ServiceHTTPServer, serve
from repro.service.lifecycle import (
    CHECKPOINT_SCHEMA_VERSION,
    ModelLifecycleManager,
    ModelVersion,
)
from repro.service.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DetectionService",
    "ServiceConfig",
    "RowOutcome",
    "BlockResult",
    "BlockSegment",
    "ERROR_REASONS",
    "MAX_LINK_COUNT",
    "ModelLifecycleManager",
    "ModelVersion",
    "CHECKPOINT_SCHEMA_VERSION",
    "EventLog",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "ServiceHTTPServer",
    "serve",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
]
