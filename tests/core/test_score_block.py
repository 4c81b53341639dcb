"""The scoring kernel (:func:`score_block`): SPE and flags, one pass.

These tests pin its contracts: bit-identity with the rank-``r``
residual formula ``ỹ = c − (c P) Pᵀ``, chunking invariance,
independence from the basis array's memory layout, and the float32
error band.  Separation moments are a separate pass,
:func:`score_moments` once per canonical tile, pinned at the end.
"""

import numpy as np
import pytest

from repro.core.detection import SPEDetector
from repro.core.subspace import (
    DEFAULT_CHUNK_ROWS,
    ScoreMoments,
    SubspaceModel,
    float32_spe_band,
    fold_moments,
    score_block,
    score_moments,
    tile_moments,
)
from repro.core.suffstats import DEFAULT_TILE_ROWS
from repro.exceptions import ModelError


@pytest.fixture(scope="module")
def world():
    """A fitted model plus a scoring block with alarms in it."""
    rng = np.random.default_rng(7341)
    factors = rng.normal(size=(4, 12))
    train = 1e3 + rng.normal(size=(300, 4)) * [9.0, 5.0, 2.0, 1.0] @ factors
    train += rng.normal(size=(300, 12)) * 0.1
    detector = SPEDetector(confidence=0.99).fit(train)
    block = train[:120].copy()
    block[::17] += rng.normal(size=block[::17].shape) * 40.0  # force alarms
    return detector, block


def normal_axes(model):
    """``Pᵀ`` of a fitted model as C-contiguous ``(r, m)`` rows."""
    return np.ascontiguousarray(model.normal_basis.T)


def rank_r_spe(centered, axes):
    """The rank-r residual formula, written out: c − (c P) Pᵀ."""
    scores = np.einsum("ij,kj->ik", centered, axes)
    residual = centered - np.einsum("ik,kj->ij", scores, axes)
    return np.einsum("ij,ij->i", residual, residual)


class TestFusionBitIdentity:
    def test_spe_matches_unfused_rank_r_arithmetic(self, world):
        detector, block = world
        model = detector.model
        axes = normal_axes(model)
        expected = rank_r_spe(block - model.pca.mean, axes)
        result = score_block(block, model.pca.mean, basis=axes)
        assert np.array_equal(result.spe, expected)
        assert result.flags is None
        # The same residual the projector gives, to rounding.
        residual = model.residual(block)
        assert np.allclose(
            result.spe, np.einsum("ij,ij->i", residual, residual),
            rtol=1e-9,
        )

    def test_flags_match_elementwise_compare(self, world):
        detector, block = world
        threshold = float(detector.threshold)
        result = detector.model.score_block(block, threshold=threshold)
        assert np.array_equal(result.flags, result.spe > threshold)
        assert result.flags.any() and not result.flags.all()

    def test_model_spe_routes_through_kernel(self, world):
        detector, block = world
        model = detector.model
        via_kernel = score_block(
            block, model.pca.mean, basis=normal_axes(model)
        ).spe
        assert np.array_equal(model.spe(block), via_kernel)
        assert float(model.spe(block[3])) == via_kernel[3]

    def test_detect_matches_spe_plus_compare(self, world):
        detector, block = world
        result = detector.detect(block)
        spe = detector.spe(block)
        assert np.array_equal(result.spe, spe)
        assert np.array_equal(result.flags, spe > detector.threshold)


class TestChunking:
    def test_chunking_is_bitwise_invariant(self, world):
        detector, block = world
        model = detector.model
        axes = normal_axes(model)
        reference = rank_r_spe(block - model.pca.mean, axes)
        for chunk_rows in (1, 7, 64, DEFAULT_CHUNK_ROWS):
            chunked = score_block(
                block, model.pca.mean, basis=axes, chunk_rows=chunk_rows
            ).spe
            assert np.array_equal(chunked, reference), chunk_rows

    def test_basis_layout_does_not_move_bits(self, world):
        """A strided view of Pᵀ scores like its C-contiguous copy."""
        detector, block = world
        model = detector.model
        view = model.pca.components[:, : model.normal_rank].T
        assert not view.flags.c_contiguous
        expected = rank_r_spe(block - model.pca.mean, normal_axes(model))
        result = score_block(block, model.pca.mean, basis=view)
        assert np.array_equal(result.spe, expected)

    def test_empty_block(self, world):
        detector, _ = world
        model = detector.model
        empty = np.empty((0, model.pca.num_components))
        result = model.score_block(empty, threshold=1.0)
        assert result.spe.shape == (0,)
        assert result.flags.shape == (0,)


class TestValidation:
    def test_rejects_malformed_basis(self, world):
        detector, block = world
        model = detector.model
        mean = model.pca.mean
        m = model.num_links
        for basis in (
            model.pca.components[:, :2],  # P, not Pᵀ
            np.zeros((m + 1, m)),  # more axes than links
            np.zeros(m),  # not a matrix
        ):
            with pytest.raises(ModelError, match="basis must be"):
                score_block(block, mean, basis=basis)

    def test_rejects_bad_chunk_rows_and_dtype(self, world):
        detector, block = world
        model = detector.model
        with pytest.raises(ModelError, match="chunk_rows"):
            score_block(
                block,
                model.pca.mean,
                basis=normal_axes(model),
                chunk_rows=0,
            )
        with pytest.raises(ModelError, match="dtype"):
            score_block(
                block,
                model.pca.mean,
                basis=normal_axes(model),
                dtype=np.int32,
            )

    def test_rejects_width_mismatch(self, world):
        detector, block = world
        model = detector.model
        with pytest.raises(ModelError):
            model.score_block(block[:, :-1])


class TestFloat32Mode:
    def test_spe_within_band_of_float64(self, world):
        detector, block = world
        model = detector.model
        spe64 = model.spe(block)
        model32 = SubspaceModel(model.pca, model.normal_rank)
        model32.dtype = np.dtype(np.float32)
        spe32 = model32.spe(block)
        assert spe32.dtype == np.float64  # returned in float64 either way
        band = float32_spe_band(
            model.state_magnitude(block), model.pca.num_components
        )
        assert np.all(np.abs(spe32 - spe64) <= band)
        assert not np.array_equal(spe32, spe64)  # precision actually moved

    def test_detector_dtype_threads_to_scoring(self, world):
        _, block = world
        d64 = SPEDetector(confidence=0.99).fit(block)
        d32 = SPEDetector(confidence=0.99, dtype="float32").fit(block)
        # The fit is float64 in both modes: identical model and limit.
        assert d32.threshold == d64.threshold
        assert d32.normal_rank == d64.normal_rank
        assert np.array_equal(
            d32.model.pca.components, d64.model.pca.components
        )
        assert d32.model.dtype == np.dtype(np.float32)
        band = float32_spe_band(
            d64.model.state_magnitude(block), block.shape[1]
        )
        assert np.all(np.abs(d32.spe(block) - d64.spe(block)) <= band)

    def test_band_scalar_and_vector_forms(self):
        # Even at zero magnitude the band keeps the absolute underflow
        # term — the bound is unconditional, never exactly zero.
        assert 0.0 < float32_spe_band(0.0, 10) < 1e-40
        scalar = float32_spe_band(4.0, 10)
        assert isinstance(scalar, float)
        vector = float32_spe_band(np.array([4.0, 8.0]), 10)
        assert vector[0] == scalar and vector[1] > vector[0]


class TestMomentsIdentity:
    def test_merge_with_identity_is_neutral(self, world):
        detector, block = world
        model = detector.model
        components = model.pca.components
        folded = score_moments(block, model.pca.mean, components)
        identity = ScoreMoments(
            count=0,
            sums=np.zeros(components.shape[1]),
            squares=np.zeros(components.shape[1]),
            minima=np.full(components.shape[1], np.inf),
            maxima=np.full(components.shape[1], -np.inf),
        )
        merged = identity.merge(folded)
        assert merged.count == folded.count
        assert np.array_equal(merged.sums, folded.sums)
        assert np.array_equal(merged.minima, folded.minima)


def assert_same_moments(got, want):
    assert got.count == want.count
    assert np.array_equal(got.sums, want.sums)
    assert np.array_equal(got.squares, want.squares)
    assert np.array_equal(got.minima, want.minima)
    assert np.array_equal(got.maxima, want.maxima)


class TestTileMoments:
    """Every fit folds one :func:`score_moments` call per canonical
    tile, in ascending row order."""

    def test_one_tile_is_one_score_moments_call(self, world):
        detector, block = world
        pca = detector.model.pca
        assert block.shape[0] <= DEFAULT_TILE_ROWS
        assert_same_moments(
            tile_moments(pca, block),
            score_moments(block, pca.mean, pca.components),
        )

    def test_tiles_fold_in_ascending_row_order(self, world):
        detector, _ = world
        pca = detector.model.pca
        rng = np.random.default_rng(11)
        rows = pca.mean + rng.normal(
            size=(2 * DEFAULT_TILE_ROWS + 100, pca.mean.size)
        )
        expected = fold_moments(
            (
                score_moments(
                    rows[lo : lo + DEFAULT_TILE_ROWS], pca.mean, pca.components
                )
                for lo in range(0, rows.shape[0], DEFAULT_TILE_ROWS)
            ),
            pca.num_components,
        )
        assert_same_moments(tile_moments(pca, rows), expected)

    def test_chunked_moments_fold_is_exact_in_count_and_extrema(self, world):
        detector, block = world
        pca = detector.model.pca
        whole = score_moments(block, pca.mean, pca.components)
        chunked = fold_moments(
            (
                score_moments(block[lo : lo + 11], pca.mean, pca.components)
                for lo in range(0, block.shape[0], 11)
            ),
            pca.num_components,
        )
        assert chunked.count == whole.count
        assert np.array_equal(chunked.minima, whole.minima)
        assert np.array_equal(chunked.maxima, whole.maxima)
        # Partial sums re-associate the reduction; equality is only up
        # to rounding, which is why the tile size is fixed.
        assert np.allclose(chunked.sums, whole.sums, rtol=1e-12)
        assert np.allclose(chunked.squares, whole.squares, rtol=1e-12)
