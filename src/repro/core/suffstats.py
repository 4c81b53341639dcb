"""Mergeable sufficient statistics for the PCA fit (the sharding seam).

The paper's model needs only three aggregates of the ``(t, m)``
measurement matrix ``Y``: the row count ``t``, the column sums
``S = Σ_t y_t`` and the second-moment (Gram) matrix ``G = Σ_t y_t y_tᵀ``.
Everything the subspace method fits — mean, covariance, principal axes,
eigenvalues, Q-statistic threshold — is a function of ``(t, S, G)``, so
a fit can be decomposed over *any* partition of the rows: workers
compute statistics over their chunks, a coordinator merges them, and
:meth:`~repro.core.pca.PCA.fit_from_stats` produces the model.  No
worker ever needs the whole matrix, which is what lets the fit run
out-of-core and fan out over processes
(:mod:`repro.pipeline.sharded`).

**Exactness.**  Floating-point addition is not associative, so naive
"sum the chunk sums" accumulation would make the result depend on the
chunk boundaries and the merge order.  :class:`SufficientStats` avoids
that by computing every aggregate over **canonical tiles** — fixed-height
row tiles aligned to absolute row indices (``tile_rows`` rows per tile,
tile ``k`` covering rows ``[k·tile_rows, (k+1)·tile_rows)``).  A chunk
contributes whole tiles where it covers them and raw row *fragments*
where it does not; :meth:`merge` unions tiles and stitches adjacent
fragments, computing a tile's statistics only once its rows are
complete — always from the same contiguous ``(tile_rows, m)`` block, by
the same kernel, regardless of how the rows arrived.  ``merge`` itself
performs **no floating-point arithmetic on aggregates**: any merge tree
over any chunking of the same rows reaches the identical internal state
(the same multiset of tile statistics), and :meth:`finalize` folds the
tiles in ascending tile order.  Hence the guarantees the sharded engine
and the property suite pin:

* ``merge`` is associative and order-invariant — bit for bit;
* statistics from any chunking of ``Y`` (including single-row chunks)
  finalize to the same bits as ``SufficientStats.from_block(Y)``;
* ``PCA.fit_from_stats(stats)`` is bit-identical to
  ``PCA(method="gram").fit(Y)`` on tall blocks (``t >= m``), because
  that fit route *is* this machinery applied to one chunk.

**Memory.**  A finalized-but-unmerged statistic holds one ``(m, m)``
Gram block per complete tile plus raw rows for boundary fragments
(at most ``2 · (tile_rows − 1)`` rows per chunk edge), so the footprint
is ``O((t / tile_rows) · m²)`` — tune ``tile_rows`` up for very long
histories.  All participants of a merge must share ``tile_rows``.

**Histories.**  :class:`RowStore` keeps an append-only history packed
into the same tiles: each tile's statistics are computed once, when it
fills, and a :class:`HistorySnapshot` hands a fit the statistics and
the tiles together — the rows the 3σ separation pass replays.

**Precision.**  Each tile stores its second moment centered at its own
tile mean (the parallel Welford / Chan et al. form), and
:meth:`finalize` folds tiles with the rank-one cross-mean correction
``(μ_a − μ_b)(μ_a − μ_b)ᵀ · n_a n_b / n`` — so the centered Gram never
suffers the ``G − S Sᵀ/t`` cancellation of naive uncentered moments,
even on mean-dominated traffic data.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError

__all__ = [
    "DEFAULT_TILE_ROWS",
    "FinalizedStats",
    "HistorySnapshot",
    "RowStore",
    "SufficientStats",
    "canonical_units",
]

#: Canonical tile height.  Part of a statistic's identity: only stats
#: with equal ``tile_rows`` merge, and changing the default changes the
#: (bit-level) result of every stats-routed fit.  1024 keeps the
#: per-tile GEMMs chunky and the per-statistic footprint at
#: ``(t / 1024) · m²`` — one week of 10-minute bins folds in one tile.
DEFAULT_TILE_ROWS = 1024


@dataclass(frozen=True)
class _TileStat:
    """Aggregates of one complete (or finalize-time partial) tile.

    ``m2`` is the second moment centered at the *tile's own* mean —
    the parallel-Welford representation that keeps the fold stable.
    """

    count: int
    total: np.ndarray  # (m,)
    m2: np.ndarray  # (m, m), centered at total / count


@dataclass(frozen=True)
class _Fragment:
    """Raw rows of a partially covered tile, tagged by absolute start."""

    start: int
    rows: np.ndarray  # (k, m), C-contiguous float64

    @property
    def end(self) -> int:
        """One past the last absolute row."""
        return self.start + self.rows.shape[0]


def canonical_units(
    runs: Iterable[tuple[int, int]], tile_rows: int
) -> list[tuple[int, int]]:
    """The canonical units of a set of covered rows, in ascending order.

    A unit is a maximal run of covered rows inside one canonical tile
    ``[k·tile_rows, (k+1)·tile_rows)``.  With no rows missing every unit
    is a whole tile (the last one what is left over); a gap cuts the
    tile it falls in, exactly as :meth:`SufficientStats.finalize`
    (``allow_gaps=True``) cuts its fragment runs.  ``runs`` are the
    maximal covered ``[start, stop)`` ranges, ascending — a merged
    coverage ledger; this only splits them at tile edges.
    """
    return [
        (max(start, k * tile_rows), min(stop, (k + 1) * tile_rows))
        for start, stop in runs
        for k in range(start // tile_rows, -(-stop // tile_rows))
    ]


def _tile_stat(rows: np.ndarray) -> _TileStat:
    """The canonical per-tile kernel.

    ``rows`` must be a C-contiguous float64 block; identical rows in an
    identical layout produce identical bits, which is the whole
    exactness argument.
    """
    total = rows.sum(axis=0)
    deviations = rows - total / rows.shape[0]
    return _TileStat(
        count=rows.shape[0],
        total=total,
        m2=deviations.T @ deviations,
    )


def _merge_parts(
    k: int, left: tuple[_Fragment, ...], right: tuple[_Fragment, ...]
) -> tuple[_Fragment, ...]:
    """Ordered union of two sorted, disjoint fragment runs of tile ``k``.

    When ``right`` starts at or after the end of ``left`` — every append
    to a growing history — only the seam is checked and the tuples are
    concatenated; otherwise the union is sorted and every neighbour
    pair checked.  Both routes return the same tuple.
    """
    if not left or not right:
        return left or right
    if left[-1].end <= right[0].start:
        return left + right
    parts = sorted(left + right, key=lambda fragment: fragment.start)
    for first, second in zip(parts, parts[1:]):
        if first.end > second.start:
            raise ModelError(
                f"row ranges overlap inside tile {k}: fragment at "
                f"{first.start} reaches past {second.start}"
            )
    return tuple(parts)


@dataclass(frozen=True)
class FinalizedStats:
    """The reduced aggregates of one :meth:`SufficientStats.finalize`.

    Attributes
    ----------
    count:
        Number of rows covered (``t``).
    total:
        Column sums ``S`` (shape ``(m,)``).
    m2:
        Centered second-moment matrix ``Σ (y_t − μ)(y_t − μ)ᵀ`` about
        the global mean ``μ = S / t``.
    start_row:
        Absolute index of the first covered row.
    """

    count: int
    total: np.ndarray
    m2: np.ndarray
    start_row: int = 0

    @property
    def num_columns(self) -> int:
        """Dimensionality ``m`` of the row space."""
        return self.total.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """Column means ``S / t``."""
        return self.total / self.count

    def centered_gram(self) -> np.ndarray:
        """``Σ (y_t − μ)(y_t − μ)ᵀ`` (alias for :attr:`m2`)."""
        return self.m2

    def covariance(self) -> np.ndarray:
        """Sample covariance ``m2 / (t − 1)``."""
        if self.count < 2:
            raise ModelError("covariance needs at least 2 rows")
        return self.m2 / (self.count - 1)


@dataclass(frozen=True)
class SufficientStats:
    """Mergeable row-count / column-sum / Gram statistics of a row chunk.

    Build with :meth:`from_block` (one chunk of rows at an absolute
    offset) or :meth:`empty` (the merge identity); combine with
    :meth:`merge`; reduce with :meth:`finalize`.

    Instances are immutable value objects: ``merge`` returns a new
    statistic and never mutates its operands, so one chunk's stats can
    participate in several merge trees (the property suite does exactly
    that to check order-invariance).
    """

    num_columns: int
    tile_rows: int = DEFAULT_TILE_ROWS
    _tiles: dict[int, _TileStat] = field(default_factory=dict, repr=False)
    _fragments: dict[int, tuple[_Fragment, ...]] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, num_columns: int, tile_rows: int = DEFAULT_TILE_ROWS
    ) -> "SufficientStats":
        """The identity statistic: merging it changes nothing."""
        if num_columns < 1:
            raise ModelError(f"num_columns must be >= 1, got {num_columns}")
        if tile_rows < 1:
            raise ModelError(f"tile_rows must be >= 1, got {tile_rows}")
        return cls(num_columns=num_columns, tile_rows=tile_rows)

    @classmethod
    def from_block(
        cls,
        block: np.ndarray,
        start_row: int = 0,
        tile_rows: int = DEFAULT_TILE_ROWS,
        validate: bool = True,
    ) -> "SufficientStats":
        """Statistics of one chunk of rows.

        Parameters
        ----------
        block:
            ``(k, m)`` rows (any ``k >= 0``, including a single row).
        start_row:
            Absolute index of the chunk's first row in the full matrix.
            Temporal shards must pass their offset so tile alignment —
            and therefore the finalized bits — is independent of the
            sharding.
        tile_rows:
            Canonical tile height; all merge participants must agree.
        validate:
            Run the full-block finiteness scan.  Callers that already
            validated the rows (``PCA.fit`` routes its tall gram fit
            through here after its own checks) pass False to skip the
            second O(t·m) pass.
        """
        block = np.ascontiguousarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise ModelError(
                f"chunk must be 2-D (rows, columns), got shape {block.shape}"
            )
        if start_row < 0:
            raise ModelError(f"start_row must be >= 0, got {start_row}")
        if validate and not np.all(np.isfinite(block)):
            raise ModelError("chunk contains non-finite values")
        stats = cls.empty(block.shape[1], tile_rows=tile_rows)
        length = block.shape[0]
        if length == 0:
            return stats
        end_row = start_row + length
        first_tile = start_row // tile_rows
        last_tile = (end_row - 1) // tile_rows
        for k in range(first_tile, last_tile + 1):
            lo = max(start_row, k * tile_rows)
            hi = min(end_row, (k + 1) * tile_rows)
            rows = np.ascontiguousarray(block[lo - start_row : hi - start_row])
            if hi - lo == tile_rows:
                stats._tiles[k] = _tile_stat(rows)
            else:
                stats._fragments[k] = (_Fragment(start=lo, rows=rows),)
        return stats

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of rows covered so far."""
        tiles = sum(stat.count for stat in self._tiles.values())
        fragments = sum(
            fragment.rows.shape[0]
            for parts in self._fragments.values()
            for fragment in parts
        )
        return tiles + fragments

    @property
    def num_complete_tiles(self) -> int:
        """Tiles whose statistics have been reduced to aggregates."""
        return len(self._tiles)

    @property
    def num_fragment_rows(self) -> int:
        """Raw rows still buffered at tile boundaries."""
        return sum(
            fragment.rows.shape[0]
            for parts in self._fragments.values()
            for fragment in parts
        )

    # ------------------------------------------------------------------
    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Combine two statistics over disjoint row sets.

        Exact by construction: the merge only unions tile aggregates and
        stitches row fragments — a tile completed here is computed by
        the same kernel on the same contiguous rows as it would have
        been by any other chunking, and no aggregate arithmetic happens
        until :meth:`finalize`.  Associative and order-invariant, bit
        for bit.
        """
        if not isinstance(other, SufficientStats):
            raise ModelError(
                f"can only merge SufficientStats, got {type(other).__name__}"
            )
        if other.num_columns != self.num_columns:
            raise ModelError(
                f"column mismatch: {self.num_columns} vs {other.num_columns}"
            )
        if other.tile_rows != self.tile_rows:
            raise ModelError(
                f"tile_rows mismatch: {self.tile_rows} vs {other.tile_rows}"
            )
        duplicates = self._tiles.keys() & other._tiles.keys()
        if duplicates:
            raise ModelError(
                f"row ranges overlap: tiles {sorted(duplicates)} appear in "
                "both statistics"
            )
        merged = SufficientStats(
            num_columns=self.num_columns, tile_rows=self.tile_rows
        )
        merged._tiles.update(self._tiles)
        merged._tiles.update(other._tiles)
        fragment_keys = self._fragments.keys() | other._fragments.keys()
        for k in fragment_keys:
            if k in merged._tiles:
                raise ModelError(
                    f"row ranges overlap: tile {k} is complete in one "
                    "statistic and fragmented in the other"
                )
            merged._fragments[k] = _merge_parts(
                k, self._fragments.get(k, ()), other._fragments.get(k, ())
            )
        merged._complete_tiles()
        return merged

    def _complete_tiles(self) -> None:
        """Reduce any fragment set that now covers a whole tile."""
        for k in list(self._fragments):
            parts = self._fragments[k]
            # An open tile fails on its first or last row, so only a
            # run spanning the whole tile pays for the length walk.
            if (
                parts[0].start != k * self.tile_rows
                or parts[-1].end != (k + 1) * self.tile_rows
            ):
                continue
            length = sum(fragment.rows.shape[0] for fragment in parts)
            if length != self.tile_rows:
                continue  # interior gap: stays fragmented until filled
            self._tiles[k] = _tile_stat(self._stitch(parts))
            del self._fragments[k]

    @staticmethod
    def _stitch(parts: tuple[_Fragment, ...]) -> np.ndarray:
        """Contiguous rows of an ordered fragment run (canonical layout)."""
        if len(parts) == 1:
            return parts[0].rows
        return np.concatenate([fragment.rows for fragment in parts], axis=0)

    # ------------------------------------------------------------------
    def finalize(self, allow_gaps: bool = False) -> FinalizedStats:
        """Reduce to ``(t, S, G)``, folding tiles in canonical order.

        Requires the covered rows to form one contiguous range (partial
        tiles at the two ends are allowed — they are the data's true
        boundaries).  ``allow_gaps=True`` lifts that requirement and
        folds exactly the rows that are covered — the degraded-mode
        (``partial`` fault policy) fit of :mod:`repro.pipeline.sharded`,
        where permanently lost chunks leave holes in the history.  The
        fold order is ascending covered-row start (identical to the
        ascending-tile order of the contiguous case), so the result is
        a pure function of the covered rows, not of the merge history.
        """
        entries: list[_TileStat] = []
        spans: list[tuple[int, int]] = []
        for k, stat in self._tiles.items():
            entries.append(stat)
            spans.append((k * self.tile_rows, (k + 1) * self.tile_rows))
        for k, parts in self._fragments.items():
            runs: list[list] = [[parts[0]]]
            for left, right in zip(parts, parts[1:]):
                if left.start + left.rows.shape[0] != right.start:
                    if not allow_gaps:
                        raise ModelError(
                            f"cannot finalize: tile {k} has an interior gap "
                            f"after row {left.start + left.rows.shape[0]}"
                        )
                    runs.append([right])
                else:
                    runs[-1].append(right)
            for run in runs:
                entries.append(_tile_stat(self._stitch(tuple(run))))
                spans.append(
                    (
                        run[0].start,
                        run[-1].start + run[-1].rows.shape[0],
                    )
                )
        if not entries:
            raise ModelError("cannot finalize empty statistics")
        order = np.argsort([start for start, _ in spans], kind="stable")
        spans = [spans[i] for i in order]
        if not allow_gaps:
            for (_, end), (start, _) in zip(spans, spans[1:]):
                if end != start:
                    raise ModelError(
                        f"cannot finalize: covered rows have a gap between "
                        f"{end} and {start}"
                    )
        # Parallel-Welford fold (Chan et al.): combine tile moments with
        # the rank-one cross-mean correction, in ascending tile order.
        count = 0
        total: np.ndarray | None = None
        m2: np.ndarray | None = None
        for i in order:
            stat = entries[i]
            if total is None:
                count = stat.count
                total = stat.total.copy()
                m2 = stat.m2.copy()
                continue
            delta = stat.total / stat.count - total / count
            weight = count * stat.count / (count + stat.count)
            m2 = m2 + stat.m2 + np.outer(delta, delta) * weight
            total = total + stat.total
            count += stat.count
        return FinalizedStats(
            count=count, total=total, m2=m2, start_row=spans[0][0]
        )


@dataclass(frozen=True)
class HistorySnapshot:
    """An immutable view of the first rows of a :class:`RowStore`.

    ``tiles`` are the rows in canonical units: one ``(tile_rows, m)``
    block per whole tile, then the rows of the open tile; ``stats``
    covers exactly those rows (``stats.count`` of them).  A fit replays
    ``tiles`` for the separation pass, so each tile is one
    :func:`~repro.core.subspace.score_moments` call.
    """

    stats: SufficientStats
    tiles: tuple[np.ndarray, ...]


class RowStore:
    """Append-only history rows, packed into canonical tiles.

    Rows are copied into a preallocated ``(tile_rows, m)`` tail.  When
    the tail fills it freezes as a tile, its statistics are computed
    once, and a fresh tail is allocated.  A tail buffer is never
    reused, so a :class:`HistorySnapshot` — frozen tiles plus a view of
    the tail rows filled so far — stays valid while appends continue.
    Appending holds no lock; the owner serializes appends.
    """

    def __init__(
        self, num_columns: int, tile_rows: int = DEFAULT_TILE_ROWS
    ) -> None:
        if num_columns < 1:
            raise ModelError(f"num_columns must be >= 1, got {num_columns}")
        if tile_rows < 1:
            raise ModelError(f"tile_rows must be >= 1, got {tile_rows}")
        self.num_columns = int(num_columns)
        self.tile_rows = int(tile_rows)
        self._tiles: list[np.ndarray] = []
        self._tile_stats: list[_TileStat] = []
        self._tail = np.empty((self.tile_rows, self.num_columns))
        self._filled = 0

    @property
    def rows(self) -> int:
        """Rows appended so far."""
        return len(self._tiles) * self.tile_rows + self._filled

    def append(self, block: np.ndarray) -> None:
        """Copy a ``(k, m)`` block of finite rows onto the end of the
        history; a bad block raises and leaves the history unchanged."""
        if block.ndim != 2 or block.shape[1] != self.num_columns:
            raise ModelError(
                f"rows of shape {block.shape} do not fit a history of "
                f"{self.num_columns} columns"
            )
        if not np.isfinite(block).all():
            raise ModelError("rows contain non-finite values")
        position = 0
        while position < block.shape[0]:
            take = min(
                self.tile_rows - self._filled, block.shape[0] - position
            )
            self._tail[self._filled : self._filled + take] = block[
                position : position + take
            ]
            self._filled += take
            position += take
            if self._filled == self.tile_rows:
                self._tiles.append(self._tail)
                self._tile_stats.append(_tile_stat(self._tail))
                self._tail = np.empty((self.tile_rows, self.num_columns))
                self._filled = 0

    def read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)``: a view when they lie in one tile
        (filled rows are never rewritten), else a copy."""
        if not 0 <= start < stop <= self.rows:
            raise ModelError(f"cannot read rows [{start}, {stop}) of {self.rows}")
        size, frozen = self.tile_rows, len(self._tiles)
        parts = [
            (self._tiles[k] if k < frozen else self._tail)[
                max(start - k * size, 0) : stop - k * size
            ]
            for k in range(start // size, (stop - 1) // size + 1)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def snapshot(self, rows: int | None = None) -> HistorySnapshot:
        """The first ``rows`` rows (default: all) as a :class:`HistorySnapshot`."""
        total = self.rows
        rows = total if rows is None else int(rows)
        if not 0 < rows <= total:
            raise ModelError(
                f"cannot snapshot {rows} rows of a {total}-row history"
            )
        whole, partial = divmod(rows, self.tile_rows)
        stats = SufficientStats(
            num_columns=self.num_columns, tile_rows=self.tile_rows
        )
        stats._tiles.update(enumerate(self._tile_stats[:whole]))
        tiles = self._tiles[:whole]
        if partial:
            rest = self.read(whole * self.tile_rows, rows)
            stats._fragments[whole] = (
                _Fragment(start=whole * self.tile_rows, rows=rest),
            )
            tiles = tiles + [rest]
        return HistorySnapshot(stats=stats, tiles=tuple(tiles))
