"""Tests for repro.core.pca (§4.2)."""

import numpy as np
import pytest

from repro.core import PCA
from repro.core.pca import _deterministic_signs
from repro.exceptions import ModelError, NotFittedError


@pytest.fixture
def anisotropic_data(rng):
    # 200 samples in R^5 with variance concentrated on two axes.
    latent = rng.normal(size=(200, 5))
    return latent @ np.diag([10.0, 4.0, 1.0, 0.5, 0.1]) + 100.0


class TestFit:
    def test_components_orthonormal(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        v = pca.components
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-10)

    def test_variance_ordering(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        captured = pca.captured_variance()
        assert np.all(np.diff(captured) <= 1e-9)

    def test_mean_computed(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        assert np.allclose(pca.mean, anisotropic_data.mean(axis=0))

    def test_captured_variance_matches_projection_norm(self, anisotropic_data):
        """The paper's definition: lambda_i = ||Y v_i||^2 on centered Y."""
        pca = PCA().fit(anisotropic_data)
        centered = anisotropic_data - anisotropic_data.mean(axis=0)
        for i in range(5):
            projected = centered @ pca.component(i)
            assert pca.captured_variance()[i] == pytest.approx(
                float(projected @ projected), rel=1e-9
            )

    def test_eigenvalues_are_covariance_eigenvalues(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        covariance = np.cov(anisotropic_data, rowvar=False)
        expected = np.sort(np.linalg.eigvalsh(covariance))[::-1]
        assert np.allclose(pca.eigenvalues(), expected, rtol=1e-9)

    def test_total_variance_conserved(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        centered = anisotropic_data - anisotropic_data.mean(axis=0)
        assert pca.captured_variance().sum() == pytest.approx(
            float(np.sum(centered**2)), rel=1e-9
        )

    def test_deterministic_sign_convention(self, anisotropic_data):
        a = PCA().fit(anisotropic_data)
        b = PCA().fit(anisotropic_data.copy())
        assert np.allclose(a.components, b.components)
        for i in range(5):
            v = a.component(i)
            assert v[np.argmax(np.abs(v))] > 0

    def test_short_wide_matrix_padded(self, rng):
        # Fewer samples than dimensions: trailing axes get zero variance.
        data = rng.normal(size=(4, 10))
        pca = PCA().fit(data)
        assert pca.num_components == 10
        assert np.allclose(pca.captured_variance()[4:], 0.0)


class TestEigensolverRoutes:
    """The economy eigensolver: method knob, auto selection, equivalence."""

    def test_unknown_method_rejected(self):
        with pytest.raises(ModelError, match="method"):
            PCA(method="qr")

    def test_auto_routes_by_aspect_ratio(self, rng):
        tall = rng.normal(size=(200, 5))
        wide = rng.normal(size=(5, 200))
        balanced = rng.normal(size=(12, 8))
        assert PCA().fit(tall).solver == "gram-covariance"
        assert PCA().fit(wide).solver == "gram-sample"
        assert PCA().fit(balanced).solver == "svd"

    def test_forced_methods_route_as_asked(self, rng):
        data = rng.normal(size=(200, 5))
        assert PCA(method="svd").fit(data).solver == "svd"
        assert PCA(method="gram").fit(data).solver == "gram-covariance"
        assert PCA(method="svd-full").fit(data).solver == "svd-full"
        assert PCA(method="gram").fit(data.T).solver == "gram-sample"

    @pytest.mark.parametrize("shape", [(200, 5), (6, 40), (12, 8)])
    def test_routes_agree(self, rng, shape):
        """Every route produces the same decomposition (tall, wide and
        balanced shapes) up to numerical precision."""
        data = rng.normal(size=shape) @ np.diag(
            np.linspace(3.0, 0.5, shape[1])
        ) + 10.0
        reference = PCA(method="svd-full").fit(data)
        k = min(shape[0] - 1, shape[1])  # determined directions
        for method in ("auto", "svd", "gram"):
            pca = PCA(method=method).fit(data)
            assert pca.num_components == shape[1]
            v = pca.components
            assert np.allclose(v.T @ v, np.eye(shape[1]), atol=1e-9)
            assert np.allclose(
                pca.eigenvalues(), reference.eigenvalues(),
                rtol=1e-7, atol=1e-9,
            )
            # Determined axes match up to precision; the sign convention
            # pins them exactly, so the overlap diagonal is +1, not ±1.
            overlap = np.diag(v.T @ reference.components)[:k]
            assert np.allclose(overlap, 1.0, atol=1e-7), method

    def test_routes_agree_on_traffic_data(self, sprint1):
        """The paper-shaped case (t ≫ m): gram vs thin vs full SVD."""
        reference = PCA(method="svd-full").fit(sprint1.link_traffic)
        for method in ("auto", "svd", "gram"):
            pca = PCA(method=method).fit(sprint1.link_traffic)
            assert np.allclose(
                pca.eigenvalues(), reference.eigenvalues(),
                rtol=1e-6, atol=1e-3,
            )
            # The detection pipeline consumes subspace projectors, so
            # compare those rather than individual axes (trailing axes
            # with near-degenerate eigenvalues may rotate freely).
            p_new = pca.components[:, :4]
            p_ref = reference.components[:, :4]
            assert np.allclose(
                p_new @ p_new.T, p_ref @ p_ref.T, atol=1e-8
            )

    def test_gram_sample_recovers_wide_matrix(self, rng):
        data = rng.normal(size=(4, 10))
        pca = PCA(method="gram").fit(data)
        assert pca.solver == "gram-sample"
        assert pca.num_components == 10
        # Reconstruction through the full basis is lossless.
        rebuilt = pca.inverse_transform(pca.transform(data))
        assert np.allclose(rebuilt, data, atol=1e-8)

    def test_refit_is_bit_deterministic(self, rng):
        data = rng.normal(size=(200, 5))
        for method in ("auto", "svd", "gram", "svd-full"):
            a = PCA(method=method).fit(data)
            b = PCA(method=method).fit(data.copy())
            assert np.array_equal(a.components, b.components)
            assert np.array_equal(
                a.captured_variance(), b.captured_variance()
            )


class TestSignFixup:
    """The vectorized deterministic-sign pass (satellite regression)."""

    @staticmethod
    def _loop_reference(components):
        components = components.copy()
        for i in range(components.shape[1]):
            pivot = np.argmax(np.abs(components[:, i]))
            if components[pivot, i] < 0:
                components[:, i] = -components[:, i]
        return components

    @pytest.mark.parametrize("shape", [(5, 5), (40, 12), (3, 17), (1, 1)])
    def test_bit_identical_to_column_loop(self, rng, shape):
        matrix = rng.normal(size=shape)
        expected = self._loop_reference(matrix)
        actual = _deterministic_signs(matrix.copy())
        assert np.array_equal(actual, expected)

    def test_tie_on_magnitude_matches_loop(self):
        # Two entries with equal |value|: argmax picks the first in both
        # implementations, so the column flips iff that entry is negative.
        matrix = np.array([[-0.5, 0.5], [0.5, -0.5], [0.1, 0.1]])
        assert np.array_equal(
            _deterministic_signs(matrix.copy()),
            self._loop_reference(matrix),
        )

    def test_empty_matrix_passthrough(self):
        empty = np.empty((4, 0))
        assert _deterministic_signs(empty.copy()).shape == (4, 0)


class TestFractionsAndDimension:
    def test_fractions_sum_to_one(self, anisotropic_data):
        assert PCA().fit(anisotropic_data).variance_fractions().sum() == pytest.approx(1.0)

    def test_effective_dimension(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        assert pca.effective_dimension(0.5) <= 2
        assert pca.effective_dimension(1.0) <= 5

    def test_effective_dimension_validation(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        with pytest.raises(ModelError):
            pca.effective_dimension(0.0)

    def test_paper_fig3_shape(self, sprint1):
        """Fig. 3: >40 links, but 3-4 components capture the vast
        majority of the variance."""
        pca = PCA().fit(sprint1.link_traffic)
        assert pca.num_components == 49
        assert pca.variance_fractions()[:4].sum() > 0.9


class TestTransforms:
    def test_transform_inverse_roundtrip(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        scores = pca.transform(anisotropic_data)
        rebuilt = pca.inverse_transform(scores)
        assert np.allclose(rebuilt, anisotropic_data, atol=1e-8)

    def test_projection_timeseries_unit_norm(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        u0 = pca.projection_timeseries(anisotropic_data, 0)
        assert np.linalg.norm(u0) == pytest.approx(1.0)

    def test_projection_timeseries_orthogonal(self, anisotropic_data):
        """The u_i of §4.3 are orthogonal by construction."""
        pca = PCA().fit(anisotropic_data)
        u0 = pca.projection_timeseries(anisotropic_data, 0)
        u1 = pca.projection_timeseries(anisotropic_data, 1)
        assert abs(float(u0 @ u1)) < 1e-10

    def test_zero_variance_axis_rejected(self, rng):
        data = np.zeros((10, 3))
        data[:, 0] = rng.normal(size=10)
        pca = PCA().fit(data)
        with pytest.raises(ModelError):
            pca.projection_timeseries(data, 2)


class TestValidation:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            PCA().transform(np.ones((2, 2)))

    def test_one_sample_rejected(self):
        with pytest.raises(ModelError):
            PCA().fit(np.ones((1, 3)))

    def test_non_finite_rejected(self):
        data = np.ones((5, 3))
        data[0, 0] = np.inf
        with pytest.raises(ModelError):
            PCA().fit(data)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ModelError):
            PCA().fit(np.ones(5))

    def test_component_index_out_of_range(self, anisotropic_data):
        pca = PCA().fit(anisotropic_data)
        with pytest.raises(ModelError):
            pca.component(99)


class TestGramRankDeficient:
    """Regression: the (t, t) Gram route on rank-deficient data.

    Squaring the spectrum surfaces eigenvalue rounding dust as
    σ ≈ σ₀·√(t·eps); with the old σ₀·t·eps cutoff those dust columns
    passed as real and their "recovered" axes broke orthonormality.
    """

    def test_rank_one_short_and_wide_stays_orthonormal(self):
        data = np.ones((4, 5))
        data[0, 0] = 0.0  # centered rank 1, t < m -> gram-sample route
        pca = PCA(method="gram").fit(data)
        assert pca.solver == "gram-sample"
        v = pca.components
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-12)
        reference = PCA(method="svd-full").fit(data)
        assert np.allclose(
            pca.eigenvalues(), reference.eigenvalues(), atol=1e-12
        )

    def test_dust_directions_report_zero_variance(self):
        data = np.ones((4, 5))
        data[0, 0] = 0.0
        pca = PCA(method="gram").fit(data)
        assert np.count_nonzero(pca.eigenvalues() > 1e-12) == 1
