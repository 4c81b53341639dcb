"""Batch reference for every outcome the programs under test returned.

HTTP workloads: each tenant's row stream is replayed through
``DetectionPipeline(svd_method="gram")``, refitted on the exact prefix
each model version was trained on.  The version schedule is worked out
independently from what the generator sent (manual refits, and the
synchronous refit cadence of the service configuration), and every
response must then match bit for bit: bin, model version, SPE, threshold
and flag, plus the identified flow and estimated bytes of each alarm.
Flagged rows are identified one row at a time, exactly as the service
identifies them, because BLAS products over several rows need not match
single-row products in the last bit.

Offline workload: :func:`outputs_digest` condenses a whole-history diagnosis
into one hash, so every timed iteration can be compared with the
reference without shipping every array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TenantLog:
    """What one tenant was sent, and what came back, in order.

    ``events`` holds ``("refit", None, None)`` for a manual refit and
    ``("rows", block, outcomes)`` for an ingest request, where
    ``outcomes`` is the decoded ``results`` list of a 200 response or
    ``None`` for a failed request.
    """

    warmup: np.ndarray
    events: list = field(default_factory=list)


@dataclass
class CheckResult:
    checked: int = 0
    mismatched: int = 0
    examples: list = field(default_factory=list)

    def merge(self, other: "CheckResult") -> None:
        self.checked += other.checked
        self.mismatched += other.mismatched
        self.examples.extend(other.examples[: max(0, 5 - len(self.examples))])


def expected_versions(warmup_rows: int, events, refit_interval):
    """``(version, trained_rows)`` the service must report for each row."""
    version, trained, total = 1, warmup_rows, warmup_rows
    schedule = []
    for kind, block, outcomes in events:
        if kind == "refit":
            version, trained = version + 1, total
            continue
        if outcomes is None:
            continue
        for _ in range(block.shape[0]):
            schedule.append((version, trained))
            total += 1
            if refit_interval is not None and total - trained >= refit_interval:
                version, trained = version + 1, total
    return schedule


def check_tenant(log: TenantLog, routing, refit_interval) -> CheckResult:
    """Compare every outcome of one tenant with the batch reference."""
    from repro.pipeline import DetectionPipeline

    result = CheckResult()
    blocks, outcomes = [], []
    for kind, block, returned in log.events:
        if kind != "rows":
            continue
        if returned is None:
            result.mismatched += block.shape[0]
            result.checked += block.shape[0]
            continue
        blocks.append(block)
        outcomes.extend(returned)
    if not blocks:
        return result
    stream = np.vstack(blocks)
    history = np.vstack([log.warmup, stream])
    schedule = expected_versions(log.warmup.shape[0], log.events, refit_interval)
    pipelines: dict[int, object] = {}
    lo = 0
    while lo < len(schedule):
        version, trained = schedule[lo]
        hi = lo
        while hi < len(schedule) and schedule[hi] == (version, trained):
            hi += 1
        if trained not in pipelines:
            pipelines[trained] = DetectionPipeline(svd_method="gram").fit(
                history[:trained], routing=routing
            )
        pipeline = pipelines[trained]
        batch = pipeline.detect(stream[lo:hi])
        for row in range(lo, hi):
            expected = {
                "bin": row,
                "model_version": version,
                "spe": batch.spe[row - lo],
                "threshold": batch.threshold,
                "flag": bool(batch.flags[row - lo]),
            }
            if expected["flag"]:
                single = pipeline.detect(stream[row : row + 1])
                expected["flow_index"] = int(single.flow_indices[0])
                expected["estimated_bytes"] = float(single.estimated_bytes[0])
            got = outcomes[row] if row < len(outcomes) else None
            result.checked += 1
            if not _same(got, expected):
                result.mismatched += 1
                if len(result.examples) < 5:
                    result.examples.append({"expected": _plain(expected), "got": got})
        lo = hi
    extra = len(outcomes) - len(schedule)
    if extra > 0:
        result.checked += extra
        result.mismatched += extra
    return result


def _same(got, expected) -> bool:
    if not isinstance(got, dict):
        return False
    for key in ("bin", "model_version", "spe", "threshold", "flag"):
        if got.get(key) != expected[key]:
            return False
    for key in ("flow_index", "estimated_bytes"):
        if got.get(key) != expected.get(key):
            return False
    return True


def _plain(record: dict) -> dict:
    return {key: (float(value) if isinstance(value, np.floating) else value)
            for key, value in record.items()}


# ----------------------------------------------------------------------
def fit_digest(detector) -> str:
    """Hash of a fitted model: rank, threshold, mean and components."""
    pca = detector.model.pca
    digest = hashlib.sha256()
    digest.update(np.int64(detector.normal_rank).tobytes())
    digest.update(np.float64(detector.threshold).tobytes())
    digest.update(np.ascontiguousarray(pca.mean).tobytes())
    digest.update(np.ascontiguousarray(pca.components).tobytes())
    return digest.hexdigest()


def chunk_outputs(results, chunk_rows: int) -> dict[str, np.ndarray]:
    """Concatenate per-chunk ``PipelineResult``s into whole-history arrays."""
    offsets = [chunk * chunk_rows for chunk in range(len(results))]
    return {
        "spe": np.concatenate([r.spe for r in results]),
        "alarm_bins": np.concatenate(
            [r.anomalous_bins + offset for r, offset in zip(results, offsets)]
        ).astype(np.int64),
        "flow_indices": np.concatenate(
            [r.flow_indices for r in results]
        ).astype(np.int64),
        "estimated_bytes": np.concatenate([r.estimated_bytes for r in results]),
    }


def outputs_digest(outputs: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for key in ("spe", "alarm_bins", "flow_indices", "estimated_bytes"):
        digest.update(np.ascontiguousarray(outputs[key]).tobytes())
    return digest.hexdigest()


def mismatched_bins(got: dict, expected: dict) -> int:
    """Bins whose SPE, flag or identification differ between two outputs."""
    spe_bad = set(np.nonzero(got["spe"] != expected["spe"])[0].tolist())
    got_alarms = dict(zip(got["alarm_bins"].tolist(),
                          zip(got["flow_indices"].tolist(),
                              got["estimated_bytes"].tolist())))
    want_alarms = dict(zip(expected["alarm_bins"].tolist(),
                           zip(expected["flow_indices"].tolist(),
                               expected["estimated_bytes"].tolist())))
    for bin_ in set(got_alarms) | set(want_alarms):
        if got_alarms.get(bin_) != want_alarms.get(bin_):
            spe_bad.add(bin_)
    return len(spe_bad)
