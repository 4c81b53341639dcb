"""Properties of the one rank-``r`` residual kernel behind every SPE.

Every scoring route computes ``SPE = ‖c − (c P) Pᵀ‖²`` with
``c = y − ȳ`` through :func:`repro.core.subspace.score_block`.  These
properties pin it:

* against an exact oracle — the SPE of the kernel's own centered rows
  in rational arithmetic, taking the float basis as exact;
* row by row — a row's SPE alone equals its SPE inside any block, at
  any chunking, for the batch model and the drift tracker alike;
* at full rank — ``r = m`` scores exactly 0 on every route.

The stacked kernel's equality with serial scoring, each member at its
own rank in ``[0, m]``, is the fleet suite's bit-identity property.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.incremental import IncrementalSubspaceTracker
from repro.core.pca import PCA
from repro.core.subspace import (
    FLOAT32_BAND_FACTOR,
    SubspaceModel,
    score_block,
    score_block_stacked,
)


@st.composite
def worlds(draw, max_links=24, max_rows=64):
    """A fitted PCA over random traffic, a rank in [0, m] and a block."""
    m = draw(st.integers(1, max_links))
    t = draw(st.integers(1, max_rows))
    rank = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.geomspace(1e4, 1.0, m)
    train = 1e6 + rng.normal(size=(max(2 * m, 8), m)) * scales
    block = 1e6 + rng.normal(size=(t, m)) * scales * draw(
        st.sampled_from([0.5, 1.0, 30.0])
    )
    return PCA().fit(train), rank, train, block


def exact_spe(centered: np.ndarray, basis: np.ndarray) -> list[Fraction]:
    """‖c − (c P) Pᵀ‖² per row in rational arithmetic (P taken exact)."""
    m, r = basis.shape
    axes = [[Fraction(float(basis[j, k])) for k in range(r)] for j in range(m)]
    energies = []
    for row in centered:
        c = [Fraction(float(value)) for value in row]
        scores = [sum(c[j] * axes[j][k] for j in range(m)) for k in range(r)]
        residual = [
            c[j] - sum(scores[k] * axes[j][k] for k in range(r))
            for j in range(m)
        ]
        energies.append(sum(value * value for value in residual))
    return energies


@settings(max_examples=60, deadline=None)
@given(worlds(max_links=6, max_rows=8))
def test_kernel_is_within_the_band_of_the_exact_spe(world):
    """float64 error ≤ FACTOR·(m + 2)·u64·‖y − ȳ‖², r anywhere in [0, m]."""
    pca, rank, _, block = world
    model = SubspaceModel(pca, rank)
    spe = model.spe(block)
    centered = block - pca.mean  # the kernel's own centered rows
    exact = exact_spe(centered, pca.components[:, :rank])
    m = pca.num_components
    u64 = float(np.finfo(np.float64).eps)
    magnitude = np.einsum("ij,ij->i", centered, centered)
    band = FLOAT32_BAND_FACTOR * (m + 2) * u64 * magnitude
    for i, energy in enumerate(exact):
        assert abs(Fraction(float(spe[i])) - energy) <= Fraction(
            float(band[i])
        ), (i, rank, m)


@settings(max_examples=60, deadline=None)
@given(worlds(), st.sampled_from([np.float64, np.float32]))
def test_model_rows_score_alike_alone_and_in_any_block(world, dtype):
    pca, rank, _, block = world
    model = SubspaceModel(pca, rank)
    model.dtype = np.dtype(dtype)
    whole = model.spe(block)
    for i, row in enumerate(block):
        assert model.spe(row) == whole[i]
    axes = np.ascontiguousarray(pca.components[:, :rank].T)
    t = block.shape[0]
    for chunk_rows in (1, 7, t):
        chunked = score_block(
            block, pca.mean, basis=axes, dtype=dtype, chunk_rows=chunk_rows
        ).spe
        assert np.array_equal(chunked, whole), chunk_rows


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_tracker_rows_score_alike_alone_and_in_any_block(world):
    _, rank, train, block = world
    tracker = IncrementalSubspaceTracker(normal_rank=rank).warm_up(train)
    whole = tracker.spe_block(block)
    for i, row in enumerate(block):
        assert tracker.spe(row) == whole[i]
        assert tracker.spe_block(block[i : i + 1])[0] == whole[i]


@settings(max_examples=30, deadline=None)
@given(worlds())
def test_full_rank_scores_zero_on_every_route(world):
    pca, _, train, block = world
    m = pca.num_components
    model = SubspaceModel(pca, m)
    assert not np.any(model.spe(block))
    assert model.spe(block[0]) == 0.0
    basis = np.ascontiguousarray(pca.components.T)
    for dtype in (np.float64, np.float32):
        result = score_block(block, pca.mean, basis=basis, threshold=0.0,
                             dtype=dtype)
        assert not np.any(result.spe) and not np.any(result.flags)
    tracker = IncrementalSubspaceTracker(normal_rank=m).warm_up(train)
    assert not np.any(tracker.spe_block(block))
    assert tracker.spe(block[0]) == 0.0
    stacked = score_block_stacked(
        np.stack([block, block]),
        np.stack([pca.mean, pca.mean]),
        bases=np.stack([basis, basis]),
        thresholds=np.zeros(2),
    )
    assert not np.any(stacked.spe) and not np.any(stacked.flags)
