"""Tests for repro.core.suffstats (mergeable sufficient statistics)."""

import pickle

import numpy as np
import pytest

from repro.core import PCA, FinalizedStats, SufficientStats
from repro.core.suffstats import DEFAULT_TILE_ROWS, RowStore
from repro.exceptions import ModelError


@pytest.fixture()
def block():
    rng = np.random.default_rng(42)
    t = 2 * DEFAULT_TILE_ROWS + 100  # spans complete tiles + a tail
    return np.abs(rng.normal(1e7, 2e6, size=(t, 6)))


def chunked(block, bounds, tile_rows=DEFAULT_TILE_ROWS):
    return [
        SufficientStats.from_block(
            block[a:b], start_row=a, tile_rows=tile_rows
        )
        for a, b in zip(bounds, bounds[1:])
    ]


class TestFromBlock:
    def test_aggregates_match_numpy(self, block):
        stats = SufficientStats.from_block(block).finalize()
        assert stats.count == block.shape[0]
        assert np.allclose(stats.total, block.sum(axis=0), rtol=1e-12)
        assert np.allclose(stats.mean, block.mean(axis=0), rtol=1e-12)
        centered = block - block.mean(axis=0)
        assert np.allclose(
            stats.centered_gram(), centered.T @ centered, rtol=1e-10
        )
        assert np.allclose(
            stats.uncentered_gram(), block.T @ block, rtol=1e-10
        )
        assert np.allclose(
            stats.covariance(), np.cov(block, rowvar=False), rtol=1e-10
        )

    def test_zero_rows_is_merge_identity(self, block):
        empty = SufficientStats.from_block(block[:0])
        real = SufficientStats.from_block(block)
        merged = empty.merge(real)
        a, b = merged.finalize(), real.finalize()
        assert a.count == b.count
        assert np.array_equal(a.total, b.total)
        assert np.array_equal(a.m2, b.m2)

    def test_rejects_bad_input(self):
        with pytest.raises(ModelError):
            SufficientStats.from_block(np.ones(5))
        with pytest.raises(ModelError):
            SufficientStats.from_block(np.ones((3, 2)), start_row=-1)
        with pytest.raises(ModelError):
            SufficientStats.from_block(np.array([[1.0, np.nan]]))
        with pytest.raises(ModelError):
            SufficientStats.empty(0)
        with pytest.raises(ModelError):
            SufficientStats.empty(3, tile_rows=0)

    def test_non_contiguous_input_matches_contiguous(self, block):
        strided = block[::1]  # same values; exercise the coercion path
        fortran = np.asfortranarray(block)
        reference = SufficientStats.from_block(block).finalize()
        for variant in (strided, fortran):
            stats = SufficientStats.from_block(variant).finalize()
            assert np.array_equal(stats.m2, reference.m2)


class TestMerge:
    def test_arbitrary_chunking_is_exact(self, block):
        """Any contiguous partition finalizes to the monolithic bits."""
        reference = SufficientStats.from_block(block).finalize()
        for bounds in (
            [0, 1, 2, block.shape[0]],  # single-row chunks up front
            [0, 100, DEFAULT_TILE_ROWS, block.shape[0]],
            [0, DEFAULT_TILE_ROWS + 7, block.shape[0]],
            list(range(0, block.shape[0], 97)) + [block.shape[0]],
        ):
            parts = chunked(block, bounds)
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
            stats = merged.finalize()
            assert stats.count == reference.count
            assert np.array_equal(stats.total, reference.total)
            assert np.array_equal(stats.m2, reference.m2)

    def test_merge_is_order_invariant(self, block):
        bounds = [0, 77, 400, 700, block.shape[0]]
        parts = chunked(block, bounds)
        forward = parts[0]
        for part in parts[1:]:
            forward = forward.merge(part)
        backward = parts[-1]
        for part in reversed(parts[:-1]):
            backward = part.merge(backward)
        paired = (parts[0].merge(parts[1])).merge(
            parts[2].merge(parts[3])
        )
        a, b, c = (
            forward.finalize(),
            backward.finalize(),
            paired.finalize(),
        )
        assert np.array_equal(a.m2, b.m2) and np.array_equal(a.m2, c.m2)
        assert np.array_equal(a.total, b.total)
        assert np.array_equal(a.total, c.total)

    def test_merge_does_not_mutate_operands(self, block):
        left = SufficientStats.from_block(block[:300])
        right = SufficientStats.from_block(block[300:], start_row=300)
        tiles_before = left.num_complete_tiles
        left.merge(right)
        assert left.num_complete_tiles == tiles_before
        # The same operand can join a second merge tree.
        again = left.merge(right).finalize()
        assert again.count == block.shape[0]

    def test_rejects_mismatched_operands(self, block):
        left = SufficientStats.from_block(block[:100])
        with pytest.raises(ModelError, match="column mismatch"):
            left.merge(SufficientStats.from_block(np.ones((4, 3))))
        with pytest.raises(ModelError, match="tile_rows"):
            left.merge(
                SufficientStats.from_block(
                    block[100:], start_row=100, tile_rows=64
                )
            )
        with pytest.raises(ModelError, match="overlap"):
            left.merge(SufficientStats.from_block(block[:100]))
        with pytest.raises(ModelError, match="overlap"):
            SufficientStats.from_block(block).merge(
                SufficientStats.from_block(block[:10])
            )

    def test_finalize_rejects_gaps(self, block):
        left = SufficientStats.from_block(block[:100])
        right = SufficientStats.from_block(block[200:300], start_row=200)
        with pytest.raises(ModelError, match="gap"):
            left.merge(right).finalize()

    def test_finalize_rejects_empty(self):
        with pytest.raises(ModelError, match="empty"):
            SufficientStats.empty(4).finalize()

    def test_fragment_bookkeeping(self, block):
        tail = SufficientStats.from_block(
            block[DEFAULT_TILE_ROWS : DEFAULT_TILE_ROWS + 10],
            start_row=DEFAULT_TILE_ROWS,
        )
        assert tail.num_complete_tiles == 0
        assert tail.num_fragment_rows == 10
        assert tail.count == 10
        head = SufficientStats.from_block(block[:DEFAULT_TILE_ROWS])
        assert head.num_complete_tiles == 1
        assert head.num_fragment_rows == 0

    def test_is_picklable(self, block):
        stats = SufficientStats.from_block(block[:300])
        clone = pickle.loads(pickle.dumps(stats))
        a = clone.merge(
            SufficientStats.from_block(block[300:], start_row=300)
        ).finalize()
        b = SufficientStats.from_block(block).finalize()
        assert np.array_equal(a.m2, b.m2)


class TestFitFromStats:
    def test_bit_identical_to_monolithic_gram_fit(self, block):
        mono = PCA(method="gram").fit(block)
        parts = chunked(block, [0, 500, 900, block.shape[0]])
        merged = parts[1].merge(parts[2]).merge(parts[0])
        fitted = PCA(method="gram").fit_from_stats(merged)
        assert np.array_equal(mono.components, fitted.components)
        assert np.array_equal(
            mono.captured_variance(), fitted.captured_variance()
        )
        assert np.array_equal(mono.mean, fitted.mean)
        assert mono.num_samples == fitted.num_samples
        assert fitted.solver == "gram-covariance"

    def test_accepts_finalized_stats(self, block):
        finalized = SufficientStats.from_block(block).finalize()
        assert isinstance(finalized, FinalizedStats)
        fitted = PCA().fit_from_stats(finalized)
        assert fitted.num_samples == block.shape[0]

    def test_center_false_consistent(self, block):
        mono = PCA(center=False, method="gram").fit(block)
        fitted = PCA(center=False, method="gram").fit_from_stats(
            SufficientStats.from_block(block)
        )
        assert np.array_equal(mono.components, fitted.components)
        assert np.array_equal(mono.mean, fitted.mean)

    def test_rejects_svd_methods(self, block):
        stats = SufficientStats.from_block(block)
        with pytest.raises(ModelError, match="cannot fit"):
            PCA(method="svd").fit_from_stats(stats)
        with pytest.raises(ModelError, match="cannot fit"):
            PCA(method="svd-full").fit_from_stats(stats)

    def test_rejects_wrong_type_and_tiny_counts(self, block):
        with pytest.raises(ModelError, match="expects"):
            PCA().fit_from_stats(block)
        with pytest.raises(ModelError, match="at least 2"):
            PCA().fit_from_stats(SufficientStats.from_block(block[:1]))

    def test_short_and_wide_takes_covariance_route(self):
        rng = np.random.default_rng(3)
        wide = rng.normal(size=(5, 12))
        fitted = PCA().fit_from_stats(SufficientStats.from_block(wide))
        v = fitted.components
        assert np.allclose(v.T @ v, np.eye(12), atol=1e-8)
        # Rank <= t - 1 after centering: trailing spectrum is dust.
        assert np.all(
            fitted.captured_variance()[5:]
            <= 1e-12 * fitted.captured_variance()[0]
        )

class TestAppendSeam:
    """Appends to a growing history take the merge's seam-only path."""

    TILE = 8

    def stats(self, rows, start):
        return SufficientStats.from_block(
            rows, start_row=start, tile_rows=self.TILE
        )

    def test_duplicate_and_overlapping_appends_raise(self, block):
        rows = block[:30]
        history = self.stats(rows[:5], 0).merge(self.stats(rows[5:6], 5))
        for start, stop in ((5, 6), (0, 5), (4, 7), (5, 9), (0, 30)):
            with pytest.raises(ModelError, match="overlap"):
                history.merge(self.stats(rows[start:stop], start))
        # An append that starts exactly at the seam is accepted.
        assert history.merge(self.stats(rows[6:7], 6)).count == 7
        # Overlap with a tile that one-row appends already completed.
        complete = history
        for i in range(6, 10):
            complete = complete.merge(self.stats(rows[i : i + 1], i))
        assert complete.num_complete_tiles == 1
        for start, stop in ((7, 8), (6, 12), (9, 10)):
            with pytest.raises(ModelError, match="overlap"):
                complete.merge(self.stats(rows[start:stop], start))

    def test_one_row_appends_match_from_block(self, block):
        """Across tile boundaries and completions, one-row appends hold
        the rows from_block holds — same tiles to the bit, fragments
        from the same first row — and finalize to the same bits; the
        general (sorting) merge order builds the identical state."""
        rows = block[:29]
        history = self.stats(rows[:3], 0)
        backward = history
        for i in range(3, rows.shape[0]):
            chunk = self.stats(rows[i : i + 1], i)
            history = history.merge(chunk)
            backward = chunk.merge(backward)
            reference = self.stats(rows[: i + 1], 0)
            assert history._tiles.keys() == reference._tiles.keys()
            for k, tile in reference._tiles.items():
                assert history._tiles[k].count == tile.count
                assert np.array_equal(history._tiles[k].total, tile.total)
                assert np.array_equal(history._tiles[k].m2, tile.m2)
            assert history._fragments.keys() == reference._fragments.keys()
            for k, (fragment,) in reference._fragments.items():
                parts = history._fragments[k]
                assert parts[0].start == fragment.start
                assert parts[-1].end == fragment.end
                assert np.array_equal(
                    np.concatenate([part.rows for part in parts]),
                    fragment.rows,
                )
                mirrored = backward._fragments[k]
                assert len(parts) == len(mirrored)
                assert all(p is q for p, q in zip(parts, mirrored))
            a, b = history.finalize(), reference.finalize()
            assert a.count == b.count
            assert np.array_equal(a.total, b.total)
            assert np.array_equal(a.m2, b.m2)
        assert history.num_complete_tiles == 3


class TestRowStore:
    """The tile-packed history: appends copy rows, full tiles freeze."""

    TILE = 8

    def test_snapshots_finalize_like_from_block(self, block):
        rows = block[:45]
        store = RowStore(rows.shape[1], tile_rows=self.TILE)
        rng = np.random.default_rng(1)
        while store.rows < rows.shape[0]:
            size = int(rng.integers(1, 12))
            store.append(rows[store.rows : store.rows + size])
        for count in (2, 7, 8, 17, 45):
            snapshot = store.snapshot(count)
            assert snapshot.stats.count == count
            assert np.array_equal(np.concatenate(snapshot.tiles), rows[:count])
            assert [tile.shape[0] for tile in snapshot.tiles[:-1]] == [
                self.TILE
            ] * (len(snapshot.tiles) - 1)
            got = snapshot.stats.finalize()
            want = SufficientStats.from_block(
                rows[:count], tile_rows=self.TILE
            ).finalize()
            assert got.count == want.count
            assert np.array_equal(got.total, want.total)
            assert np.array_equal(got.m2, want.m2)

    def test_mid_tile_snapshot_survives_two_more_tiles(self, block):
        rows = block[:40]
        store = RowStore(rows.shape[1], tile_rows=self.TILE)
        store.append(rows[:11])
        snapshot = store.snapshot()
        tiles = [tile.tobytes() for tile in snapshot.tiles]
        stats = snapshot.stats.finalize()
        for row in rows[11 : 11 + 2 * self.TILE]:
            store.append(row[None, :])
        assert store.rows == 11 + 2 * self.TILE
        assert [tile.tobytes() for tile in snapshot.tiles] == tiles
        again = snapshot.stats.finalize()
        assert np.array_equal(again.total, stats.total)
        assert np.array_equal(again.m2, stats.m2)

    def test_rejects_bad_input(self, block):
        store = RowStore(6, tile_rows=self.TILE)
        with pytest.raises(ModelError, match="6 columns"):
            store.append(block[:3, :5])
        with pytest.raises(ModelError, match="snapshot"):
            store.snapshot()
        store.append(block[:3])
        with pytest.raises(ModelError, match="snapshot 4 rows"):
            store.snapshot(4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_leaves_the_store_unchanged(self, block, bad):
        store = RowStore(block.shape[1], tile_rows=self.TILE)
        store.append(block[:5])
        before = store.snapshot()
        # Long enough to fill a tile before it reaches the bad row.
        poisoned = block[5:20].copy()
        poisoned[-1, 2] = bad
        with pytest.raises(ModelError, match="non-finite"):
            store.append(poisoned)
        assert store.rows == 5
        after = store.snapshot()
        assert [t.tobytes() for t in after.tiles] == [
            t.tobytes() for t in before.tiles
        ]
        store.append(block[5:20])
        assert np.array_equal(np.concatenate(store.snapshot().tiles), block[:20])
