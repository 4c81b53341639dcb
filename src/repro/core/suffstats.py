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

**Precision.**  Each tile stores its second moment centered at its own
tile mean (the parallel Welford / Chan et al. form), and
:meth:`finalize` folds tiles with the rank-one cross-mean correction
``(μ_a − μ_b)(μ_a − μ_b)ᵀ · n_a n_b / n`` — so the centered Gram never
suffers the ``G − S Sᵀ/t`` cancellation of naive uncentered moments,
even on mean-dominated traffic data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError

__all__ = ["SufficientStats", "FinalizedStats", "DEFAULT_TILE_ROWS"]

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

    def uncentered_gram(self) -> np.ndarray:
        """``Σ y_t y_tᵀ`` reconstructed via the rank-one correction."""
        return self.m2 + np.outer(self.total, self.total) / self.count

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
