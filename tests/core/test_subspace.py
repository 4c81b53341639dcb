"""Tests for repro.core.subspace (§4.3, §5.1)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import PCA, SPEDetector, SubspaceModel
from repro.core.subspace import score_moments, separate_axes
from repro.exceptions import ModelError


@pytest.fixture
def structured_data(rng):
    """200 samples: two smooth sinusoidal modes + small noise + one spike."""
    t = np.arange(200)
    mode1 = np.sin(2 * np.pi * t / 50)
    mode2 = np.cos(2 * np.pi * t / 25)
    mixing = rng.normal(size=(2, 8))
    data = np.outer(mode1, mixing[0] * 10) + np.outer(mode2, mixing[1] * 5)
    data += rng.normal(0, 0.05, size=data.shape)
    data[100] += rng.normal(0, 2.0, size=8)  # an anomalous timestep
    return data


@pytest.fixture
def model(structured_data):
    return SPEDetector().fit(structured_data).model


class TestSeparation:
    def test_smooth_axes_stay_normal(self, structured_data):
        pca = PCA().fit(structured_data)
        result = separate_axes(pca, structured_data)
        # The two sinusoidal modes are bounded (max/std of a sinusoid is
        # sqrt(2)); they must not trip the 3-sigma rule.
        assert result.normal_rank >= 2

    def test_spiky_axes_marked_anomalous(self, structured_data):
        pca = PCA().fit(structured_data)
        result = separate_axes(pca, structured_data)
        assert result.normal_rank < 8
        assert result.first_anomalous_axis is not None

    def test_deviations_reported_per_axis(self, structured_data):
        pca = PCA().fit(structured_data)
        result = separate_axes(pca, structured_data)
        assert result.max_deviations.shape == (8,)
        assert np.all(result.max_deviations >= 0)

    def test_rank_clamps(self, structured_data):
        pca = PCA().fit(structured_data)
        result = separate_axes(
            pca, structured_data, min_normal_rank=3, max_normal_rank=3
        )
        assert result.normal_rank == 3

    def test_no_trip_means_all_normal(self, rng):
        # Pure low-rank sinusoids with no spikes: first axes never trip;
        # trailing zero-variance axes cannot trip either.
        t = np.arange(64)
        data = np.outer(np.sin(2 * np.pi * t / 16), np.ones(4))
        pca = PCA().fit(data)
        result = separate_axes(pca, data, min_normal_rank=0)
        assert result.first_anomalous_axis is None
        assert result.normal_rank == 4

    def test_threshold_sigma_validation(self, structured_data):
        pca = PCA().fit(structured_data)
        with pytest.raises(ModelError):
            separate_axes(pca, structured_data, threshold_sigma=0)

    def test_invalid_clamps(self, structured_data):
        pca = PCA().fit(structured_data)
        with pytest.raises(ModelError):
            separate_axes(pca, structured_data, min_normal_rank=5, max_normal_rank=2)

    @pytest.mark.parametrize("width", [1, 7])
    def test_wrong_width_is_a_model_error(self, structured_data, width):
        """A block narrower than the model raises, naming both widths,
        instead of broadcasting (width 1) or failing inside numpy."""
        pca = PCA().fit(structured_data)
        block = structured_data[:, :width]
        calls = (
            lambda: separate_axes(pca, block),
            lambda: score_moments(block, pca.mean, pca.components),
            lambda: pca.transform(block),
        )
        for call in calls:
            with pytest.raises(ModelError, match=f"{width} links.* 8"):
                call()

    def test_memory_does_not_grow_with_rows(self):
        """The rule folds per-tile moments and never builds the (t, m)
        score matrix: the peak allocation is the same at t and 4t."""
        rng = np.random.default_rng(3)
        peaks = []
        for t in (16384, 65536):
            block = rng.normal(size=(t, 32)) + 100.0
            pca = PCA(method="gram").fit(block)
            tracemalloc.start()
            try:
                separate_axes(pca, block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_paper_rank_on_sprint(self, sprint1):
        """The paper finds the first ~4 components normal; our synthetic
        worlds use 3 shared patterns, so the rule should find 3."""
        pca = PCA().fit(sprint1.link_traffic)
        result = separate_axes(pca, sprint1.link_traffic)
        assert result.normal_rank == 3


class TestProjectors:
    def test_projector_idempotent(self, model):
        c = model.normal_projector
        assert np.allclose(c @ c, c, atol=1e-10)

    def test_projectors_complementary(self, model):
        c = model.normal_projector
        c_tilde = model.anomalous_projector
        assert np.allclose(c + c_tilde, np.eye(model.num_links), atol=1e-12)

    def test_projectors_orthogonal(self, model):
        c = model.normal_projector
        c_tilde = model.anomalous_projector
        assert np.allclose(c @ c_tilde, 0.0, atol=1e-10)

    def test_projector_symmetric(self, model):
        c = model.normal_projector
        assert np.allclose(c, c.T)

    def test_projector_rank(self, model):
        c = model.normal_projector
        assert np.linalg.matrix_rank(c) == model.normal_rank

    def test_with_rank_constructor(self, structured_data):
        pca = PCA().fit(structured_data)
        model = SubspaceModel.with_rank(pca, 2)
        assert model.normal_rank == 2
        assert model.normal_basis.shape == (8, 2)

    def test_rank_out_of_range(self, structured_data):
        pca = PCA().fit(structured_data)
        with pytest.raises(ModelError):
            SubspaceModel.with_rank(pca, 9)


class TestDecomposition:
    def test_parts_sum_to_centered(self, model, structured_data):
        modeled, residual = model.decompose(structured_data)
        centered = structured_data - model.pca.mean
        assert np.allclose(modeled + residual, centered, atol=1e-9)

    def test_energy_splits(self, model, structured_data):
        """||y||^2 = ||y_hat||^2 + ||y_tilde||^2 (orthogonal split)."""
        modeled, residual = model.decompose(structured_data)
        total = model.state_magnitude(structured_data)
        split = np.einsum("ij,ij->i", modeled, modeled) + np.einsum(
            "ij,ij->i", residual, residual
        )
        assert np.allclose(split, total, rtol=1e-9)

    def test_spe_matches_residual_norm(self, model, structured_data):
        _, residual = model.decompose(structured_data)
        spe = model.spe(structured_data)
        assert np.allclose(spe, np.einsum("ij,ij->i", residual, residual))

    def test_single_vector_api(self, model, structured_data):
        y = structured_data[0]
        spe = model.spe(y)
        assert isinstance(spe, float)
        assert spe == pytest.approx(float(model.spe(structured_data)[0]))

    def test_spike_dominates_residual(self, model, structured_data):
        spe = model.spe(structured_data)
        assert np.argmax(spe) == 100  # the injected anomalous timestep

    def test_residual_orthogonal_to_normal_basis(self, model, structured_data):
        residual = model.residual(structured_data)
        p = model.normal_basis
        assert np.allclose(residual @ p, 0.0, atol=1e-9)

    def test_wrong_width_rejected(self, model):
        with pytest.raises(ModelError):
            model.spe(np.ones(3))

    def test_residual_eigenvalues_length(self, model):
        assert model.residual_eigenvalues().shape == (8 - model.normal_rank,)
