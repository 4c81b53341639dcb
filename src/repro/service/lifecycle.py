"""Versioned model lifecycle for the always-on detection service.

The service never scores a row against a half-updated model.  Instead it
serves one immutable :class:`ModelVersion` at a time, wrapping a fully
fitted :class:`~repro.core.detection.SPEDetector`; a retired version is
kept as its summary only.  :class:`ModelLifecycleManager` owns the
transitions:

``bootstrap``
    Fit version 1 from a warmup block (the service will not accept
    traffic before this).
``append_rows``
    Copy freshly ingested rows into the tile-packed history
    (:class:`~repro.core.suffstats.RowStore`): each full tile computes
    its statistics once, so pass 1 of a future refit is paid
    incrementally, and the tiles are what the separation pass scores.
``refit``
    Fit a candidate from a history snapshot via
    :meth:`SPEDetector.fit_from_stats
    <repro.core.detection.SPEDetector.fit_from_stats>`, then
    *atomically* swap it in: the swap is a single reference assignment
    under the manager lock, recorded with the exact row boundary, so a
    concurrent ingest scores either entirely under the old version or
    entirely under the new one — never a blend, never a dropped row.

Because the statistics path is bit-identical to a monolithic fit, an
offline :class:`~repro.pipeline.pipeline.DetectionPipeline` refit on the
rows ``[0, trained_rows)`` reproduces each version's detector exactly —
the parity property the service tests pin.
"""

from __future__ import annotations

import pickle
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util import atomic_pickle_dump, ensure_matrix
from repro.core.detection import SPEDetector
from repro.core.suffstats import (
    DEFAULT_TILE_ROWS,
    FinalizedStats,
    HistorySnapshot,
    RowStore,
)
from repro.exceptions import CheckpointError, ModelError, ServiceError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "ModelLifecycleManager",
    "ModelVersion",
    "warmup_history",
]

#: Bump when the checkpoint payload shape changes.
CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelVersion:
    """One immutable fitted model in the service's version sequence.

    Attributes
    ----------
    version:
        Monotonic id, 1 for the bootstrap fit.
    detector:
        The fully fitted :class:`~repro.core.detection.SPEDetector`.
    trained_rows:
        The model was fitted on absolute rows ``[0, trained_rows)``.
    activated_at_row:
        First absolute row index scored under this version — the
        hot-swap boundary.  Equals ``trained_rows`` for the bootstrap
        version (warmup rows are never scored).
    """

    version: int
    detector: SPEDetector
    trained_rows: int
    activated_at_row: int

    @property
    def threshold(self) -> float:
        """The version's Q-statistic limit ``δ²_α``."""
        return self.detector.threshold

    @property
    def normal_rank(self) -> int:
        """The version's fitted normal-subspace rank."""
        return self.detector.normal_rank

    def summary(self) -> dict:
        """JSON-friendly description (event log / ``/version`` payload);
        the lifecycle sets ``retired_at_row`` when it retires the version."""
        return {
            "version": self.version,
            "trained_rows": self.trained_rows,
            "activated_at_row": self.activated_at_row,
            "retired_at_row": None,
            "normal_rank": int(self.normal_rank),
            "threshold": float(self.threshold),
        }


class ModelLifecycleManager:
    """Owns model versions, history statistics, and atomic hot-swaps.

    Parameters mirror :class:`~repro.core.detection.SPEDetector`;
    ``refit_hook`` is a zero-argument callable invoked at the start of
    every candidate fit — the fault-injection tests use it to force a
    refit failure and assert the active model survives untouched.
    Every fit folds :data:`~repro.core.suffstats.DEFAULT_TILE_ROWS`-row
    tiles.
    """

    def __init__(
        self,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        min_normal_rank: int = 1,
        max_normal_rank: int | None = None,
        refit_hook: Callable[[], None] | None = None,
        dtype: np.dtype | type | str = np.float64,
    ) -> None:
        self.confidence = confidence
        self.threshold_sigma = threshold_sigma
        self.requested_rank = normal_rank
        self.min_normal_rank = min_normal_rank
        self.max_normal_rank = max_normal_rank
        self.refit_hook = refit_hook
        self.dtype = np.dtype(dtype)
        self._lock = threading.RLock()
        self._history: RowStore | None = None
        self._current: ModelVersion | None = None
        #: Summaries of the retired versions, oldest first (their
        #: detectors are not kept).
        self._retired: list[dict] = []
        #: Side-channel state from the checkpoint that restored this
        #: manager ({} when constructed fresh) — the service layer uses
        #: it to resume its own counters (warmup/stream row tallies).
        self.restored_extra: dict = {}

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Absolute rows accumulated (warmup + ingested)."""
        with self._lock:
            return 0 if self._history is None else self._history.rows

    @property
    def num_links(self) -> int:
        """Measurement width ``m`` fixed by the warmup block."""
        return self._require_history().num_columns

    def _require_history(self) -> RowStore:
        with self._lock:
            if self._history is None:
                raise ServiceError("bootstrap the lifecycle first")
            return self._history

    @property
    def current(self) -> ModelVersion:
        """The active model version (atomic read)."""
        with self._lock:
            if self._current is None:
                raise ServiceError(
                    "no model is active: call bootstrap() first"
                )
            return self._current

    @property
    def is_bootstrapped(self) -> bool:
        with self._lock:
            return self._current is not None

    def version_summaries(self) -> list[dict]:
        """:meth:`ModelVersion.summary` of every version ever activated,
        oldest first, including those retired before a restore."""
        with self._lock:
            summaries = [dict(summary) for summary in self._retired]
            if self._current is not None:
                summaries.append(self._current.summary())
            return summaries

    # ------------------------------------------------------------------
    def bootstrap(self, warmup: np.ndarray) -> ModelVersion:
        """Fit version 1 from a ``(t, m)`` warmup block."""
        history = warmup_history(warmup)
        with self._lock:
            if self._current is not None:
                raise ServiceError("lifecycle is already bootstrapped")
            detector = self._fit_candidate(history.snapshot())
            self._history = history
            self._current = ModelVersion(
                version=1,
                detector=detector,
                trained_rows=history.rows,
                activated_at_row=history.rows,
            )
            return self._current

    def history_snapshot(self) -> HistorySnapshot:
        """Consistent snapshot of the whole history.

        This is the state :meth:`fit_candidate` fits from: the tiles
        and their statistics, read under the manager lock.  The
        snapshot stays valid while ingest keeps appending.
        """
        with self._lock:
            return self._require_history().snapshot()

    def append_rows(self, block: np.ndarray) -> None:
        """Copy newly scored rows onto the history (post-scoring)."""
        block = ensure_matrix(
            block, name="rows", error=ServiceError, check_finite=False
        )
        if block.shape[0] == 0:
            return
        with self._lock:
            history = self._require_history()
            if block.shape[1] != history.num_columns:
                raise ServiceError(
                    f"row width {block.shape[1]} != expected "
                    f"{history.num_columns}"
                )
            history.append(block)

    def last_tile_stats(self) -> FinalizedStats | None:
        """Statistics of the history's last complete tile (see
        :meth:`RowStore.last_tile_stats
        <repro.core.suffstats.RowStore.last_tile_stats>`), read under
        the manager lock; None before the first tile completes."""
        with self._lock:
            return self._require_history().last_tile_stats()

    # ------------------------------------------------------------------
    def fit_config(self) -> dict:
        """The :class:`~repro.core.detection.SPEDetector` settings this
        manager fits with."""
        return {
            "confidence": self.confidence,
            "threshold_sigma": self.threshold_sigma,
            "normal_rank": self.requested_rank,
            "min_normal_rank": self.min_normal_rank,
            "max_normal_rank": self.max_normal_rank,
            "dtype": self.dtype,
        }

    def _fit_candidate(self, snapshot: HistorySnapshot) -> SPEDetector:
        if self.refit_hook is not None:
            self.refit_hook()
        # Only the snapshot is read, never the live history it came from.
        return SPEDetector(**self.fit_config()).fit_from_stats(
            snapshot.stats, snapshot.tiles
        )

    def fit_candidate(self) -> tuple[SPEDetector, int]:
        """Fit a candidate model from a consistent history snapshot.

        Runs *outside* the manager lock (ingestion keeps flowing while
        the candidate fits); returns the detector and the number of rows
        it was trained on.  Raises whatever the fit raises — the caller
        decides whether that is fatal.
        """
        snapshot = self.history_snapshot()
        return self._fit_candidate(snapshot), snapshot.stats.count

    def refit(self) -> ModelVersion:
        """Fit a candidate and atomically hot-swap it in.

        The swap itself is a single reference assignment under the lock:
        the retiring version's summary records ``retired_at_row`` equal
        to the new version's ``activated_at_row``, so the boundary
        partitions the row stream exactly — no row is scored under both
        models and none is dropped.
        """
        detector, trained_rows = self.fit_candidate()
        return self.activate(detector, trained_rows)

    def activate(
        self, detector: SPEDetector, trained_rows: int
    ) -> ModelVersion:
        """Atomically install a fitted candidate as the new version."""
        with self._lock:
            if self._current is None:
                raise ServiceError("bootstrap the lifecycle first")
            boundary = self._history.rows
            retiring = self._current
            self._retired.append(
                {**retiring.summary(), "retired_at_row": boundary}
            )
            self._current = ModelVersion(
                version=retiring.version + 1,
                detector=detector,
                trained_rows=trained_rows,
                activated_at_row=boundary,
            )
            return self._current

    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path, extra: dict | None = None) -> dict:
        """Serialize the full lifecycle state to ``path`` atomically.

        The payload carries the history's rows as tiles (``"blocks"``:
        one ``(DEFAULT_TILE_ROWS, m)`` array per full tile, then the open
        tile's rows; restore derives the statistics from them), the
        summaries of every version, the fit configuration, and an
        optional ``extra`` dict of caller state (the service stores its
        row counters there).  The write goes through
        :func:`~repro._util.atomic_pickle_dump` — temp file in the same
        directory, fsync, ``os.replace`` — so a crash mid-write leaves
        the previous complete checkpoint, never a torn file.  Returns
        the summary section for logging.
        """
        with self._lock:
            if self._current is None:
                raise ServiceError("bootstrap the lifecycle first")
            *retired, current = self.version_summaries()
            payload = {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "config": {
                    **self.fit_config(),
                    "tile_rows": DEFAULT_TILE_ROWS,
                    "dtype": str(self.dtype),
                },
                "blocks": list(self._history.snapshot().tiles),
                "rows": self._history.rows,
                "current": current,
                "retired": retired,
                "extra": dict(extra or {}),
            }
        atomic_pickle_dump(path, payload)
        return payload["current"]

    @classmethod
    def restore(cls, path: str | Path) -> "ModelLifecycleManager":
        """Rebuild a lifecycle manager from a checkpoint.

        The history is rebuilt by appending the checkpointed ``"blocks"``
        — tiles, or one block per request in files written before the
        tile-packed history — and the statistics are derived from those
        rows.  The active detector is *refit from the history's trained
        prefix* rather than unpickled, which keeps the checkpoint free
        of fitted-model internals; the restored detector is
        bit-identical to the one that wrote the checkpoint (the restore
        tests pin threshold, mean, and components bitwise).  The fit
        settings and the retired versions' summaries come from the
        checkpoint too.

        A file that cannot be read or unpickled — truncated, scribbled,
        missing, or written with tiles of another height — raises
        :class:`~repro.exceptions.CheckpointError`,
        whatever the unpickler tripped on (damaged bytes surface as
        ``OverflowError``, ``TypeError`` and more besides the usual
        ``UnpicklingError``); a readable payload from an incompatible
        schema raises :class:`~repro.exceptions.ServiceError`.
        """
        try:
            with Path(path).open("rb") as handle:
                payload = pickle.load(handle)
        except Exception as err:  # noqa: BLE001 - any damage mode
            raise CheckpointError(
                f"unreadable service checkpoint {path}: "
                f"{type(err).__name__}: {err}"
            ) from err
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"malformed service checkpoint {path}: "
                f"expected dict payload, got {type(payload).__name__}"
            )
        if payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ServiceError(
                "unsupported checkpoint schema "
                f"{payload.get('schema_version')!r}"
            )
        try:
            config = payload["config"]
            if config["tile_rows"] != DEFAULT_TILE_ROWS:
                raise CheckpointError(
                    f"service checkpoint {path} holds "
                    f"{config['tile_rows']}-row tiles, not "
                    f"{DEFAULT_TILE_ROWS}"
                )
            manager = cls(
                confidence=config["confidence"],
                threshold_sigma=config["threshold_sigma"],
                normal_rank=config["normal_rank"],
                min_normal_rank=config["min_normal_rank"],
                max_normal_rank=config["max_normal_rank"],
                # Schema-1 checkpoints written before the dtype knob
                # existed carry no entry; those models scored in float64.
                dtype=config.get("dtype", "float64"),
            )
            current = payload["current"]
            rows = int(payload["rows"])
            trained = int(current["trained_rows"])
            retired = [dict(summary) for summary in payload["retired"]]
            blocks = [np.asarray(b, dtype=np.float64) for b in payload["blocks"]]
            history = RowStore(np.shape(blocks[0])[1])
            for block in blocks:
                history.append(block)
        except (KeyError, TypeError, ValueError, IndexError, ModelError) as err:
            raise CheckpointError(
                f"malformed service checkpoint {path}: {err}"
            ) from err
        if history.rows != rows or not 2 <= trained <= rows:
            raise ServiceError(
                f"history holds {history.rows} rows but the checkpoint "
                f"claims {rows} ({trained} trained)"
            )
        manager.restored_extra = dict(payload.get("extra") or {})
        manager._retired = retired
        with manager._lock:
            manager._history = history
            # Refit on the trained prefix only: rows ingested after the
            # checkpointed model was fitted belong to the *next* refit.
            detector = manager._fit_candidate(history.snapshot(trained))
            manager._current = ModelVersion(
                version=current["version"],
                detector=detector,
                trained_rows=trained,
                activated_at_row=current["activated_at_row"],
            )
        return manager


def warmup_history(warmup: np.ndarray) -> RowStore:
    """The tile-packed history of a ``(t, m)`` warmup of >= 2 rows."""
    warmup = ensure_matrix(
        warmup, name="warmup", error=ServiceError, check_finite=False
    )
    if warmup.shape[0] < 2:
        raise ServiceError(
            f"warmup needs at least 2 rows, got {warmup.shape[0]}"
        )
    history = RowStore(warmup.shape[1])
    history.append(warmup)
    return history
