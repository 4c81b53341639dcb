"""Property-based tests for PCA and the subspace decomposition.

These check the algebraic invariants the subspace method rests on, over
arbitrary (finite, well-conditioned) data matrices.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import PCA, SubspaceModel


def matrices(min_rows=4, max_rows=40, min_cols=2, max_cols=8):
    """Random finite measurement matrices with bounded magnitude."""
    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_components_orthonormal(data):
    pca = PCA().fit(data)
    v = pca.components
    assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_variance_ordering_and_conservation(data):
    pca = PCA().fit(data)
    captured = pca.captured_variance()
    assert np.all(np.diff(captured) <= 1e-6 * max(captured.max(), 1.0))
    centered = data - data.mean(axis=0)
    assert captured.sum() == pytest.approx(float(np.sum(centered**2)), rel=1e-6, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 8))
def test_projection_energy_split(data, rank_seed):
    """||y - mean||^2 = ||y_hat||^2 + ||y_tilde||^2 for every rank."""
    pca = PCA().fit(data)
    rank = rank_seed % (pca.num_components + 1)
    model = SubspaceModel(pca, rank)
    modeled, residual = model.decompose(data)
    total = model.state_magnitude(data)
    split = np.einsum("ij,ij->i", modeled, modeled) + np.einsum(
        "ij,ij->i", residual, residual
    )
    scale = max(float(np.max(total)), 1.0)
    assert np.allclose(split, total, atol=1e-6 * scale)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 8))
def test_projectors_idempotent_and_complementary(data, rank_seed):
    pca = PCA().fit(data)
    rank = rank_seed % (pca.num_components + 1)
    model = SubspaceModel(pca, rank)
    c = model.normal_projector
    c_tilde = model.anomalous_projector
    assert np.allclose(c @ c, c, atol=1e-8)
    assert np.allclose(c_tilde @ c_tilde, c_tilde, atol=1e-8)
    assert np.allclose(c + c_tilde, np.eye(c.shape[0]), atol=1e-10)
    assert np.allclose(c @ c_tilde, 0.0, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_spe_nonnegative_and_zero_at_full_rank(data):
    pca = PCA().fit(data)
    model_full = SubspaceModel(pca, pca.num_components)
    spe_full = model_full.spe(data)
    scale = max(float(np.max(np.abs(data))), 1.0)
    assert np.all(np.asarray(spe_full) <= 1e-12 * scale**2 + 1e-6)
    model_zero = SubspaceModel(pca, 0)
    spe_zero = model_zero.spe(data)
    assert np.all(np.asarray(spe_zero) >= -1e-9)


#: Twelve one-hot rows over six links: the five leading eigenvalues tie,
#: so the rank-1 normal axis is any direction of that eigenspace.
TIED = np.vstack([np.eye(6), np.eye(6)])


@settings(max_examples=40, deadline=None)
@given(matrices(min_rows=6), st.floats(0.1, 1000.0))
def test_spe_scale_equivariance(data, scale):
    """Scaling the data scales SPE quadratically (threshold follows).

    Per-row SPE is only defined when the rank-1 axis is: with tied
    leading eigenvalues each fit may pick another axis inside the tied
    eigenspace, so the claim needs an eigengap
    (:func:`test_training_spe_total_scales_quadratically` covers ties).
    """
    pca_a = PCA().fit(data)
    eigenvalues = pca_a.eigenvalues()
    assume(eigenvalues[0] - eigenvalues[1] > 1e-6 * eigenvalues[0])
    model_a = SubspaceModel(pca_a, 1)
    pca_b = PCA().fit(data * scale)
    model_b = SubspaceModel(pca_b, 1)
    spe_a = np.asarray(model_a.spe(data))
    spe_b = np.asarray(model_b.spe(data * scale))
    ref = max(float(spe_a.max()), 1e-9)
    assert np.allclose(spe_b, spe_a * scale**2, atol=1e-5 * ref * scale**2)


@settings(max_examples=40, deadline=None)
@given(matrices(min_rows=6), st.floats(0.1, 1000.0))
@example(data=TIED, scale=3.0)
def test_training_spe_total_scales_quadratically(data, scale):
    """At rank 1 the SPE summed over the training rows is the tail of
    the spectrum, Σ_{i>1} ‖Y v_i‖², whichever axis a tie picks — so it
    scales by scale² with no eigengap precondition."""
    totals = []
    for block in (data, data * scale):
        pca = PCA().fit(block)
        total = float(np.sum(SubspaceModel(pca, 1).spe(block)))
        tail = float(pca.captured_variance()[1:].sum())
        # Rounding dust scales with the raw magnitudes, not the spread.
        dust = 1e-9 * float(np.sum(block**2))
        assert total == pytest.approx(tail, rel=1e-6, abs=dust)
        totals.append((total, dust))
    (total_a, _), (total_b, dust_b) = totals
    assert total_b == pytest.approx(
        total_a * scale**2, rel=1e-6, abs=dust_b
    )


@settings(max_examples=40, deadline=None)
@given(matrices(min_rows=4, max_rows=60, min_cols=2, max_cols=10))
def test_fit_methods_agree_on_random_shapes(data):
    """`svd`, `gram` and the legacy `svd-full` reference produce the
    same model on arbitrary shapes: equal spectra and an identical
    reconstructed covariance (the basis itself may differ by sign or
    by rotation inside degenerate eigenspaces)."""
    reference = PCA(method="svd-full").fit(data)
    ref_eigenvalues = reference.eigenvalues()
    ref_cov = (
        reference.components * ref_eigenvalues
    ) @ reference.components.T
    scale = max(float(ref_eigenvalues.max(initial=0.0)), 1.0)
    for method in ("svd", "gram", "auto"):
        pca = PCA(method=method).fit(data)
        assert np.allclose(
            pca.eigenvalues(), ref_eigenvalues, atol=1e-8 * scale
        )
        cov = (pca.components * pca.eigenvalues()) @ pca.components.T
        assert np.allclose(cov, ref_cov, atol=1e-7 * scale)
        v = pca.components
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-8)
