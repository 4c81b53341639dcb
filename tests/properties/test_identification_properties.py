"""Property-based tests for identification/quantification algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PCA, SubspaceModel
from repro.core.identification import (
    IdentificationState,
    identify_block,
    identify_single_flow,
    identify_single_flow_naive,
)
from repro.exceptions import ModelError
from repro.core.quantification import quantify_from_magnitude
from repro.routing import SPFRouting, build_routing_matrix
from repro.topology.builders import ring_network


@st.composite
def fitted_world(draw):
    """A small ring world with a fitted rank-2 subspace model."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    network = ring_network(5)
    routing = build_routing_matrix(network, SPFRouting(network).compute())
    m = routing.num_links
    t = 60
    modes = rng.normal(size=(2, m))
    clock = np.arange(t)
    data = (
        np.outer(np.sin(2 * np.pi * clock / 20), modes[0] * 100)
        + np.outer(np.cos(2 * np.pi * clock / 15), modes[1] * 40)
        + rng.normal(0, 1.0, size=(t, m))
        + 1000.0
    )
    pca = PCA().fit(data)
    model = SubspaceModel.with_rank(pca, 2)
    return model, routing, data, rng


@settings(max_examples=30, deadline=None)
@given(fitted_world(), st.integers(0, 24), st.floats(1e3, 1e6))
def test_closed_form_equals_naive(world, flow_seed, size):
    """argmin over Eq. 1 == argmax of explained residual energy."""
    model, routing, data, rng = world
    flow = flow_seed % routing.num_flows
    theta = routing.normalized_columns()
    y = data[7] + size * routing.column(flow)
    fast = identify_single_flow(model, theta, y)
    naive = identify_single_flow_naive(model, theta, y)
    assert fast.flow_index == naive.flow_index
    assert fast.magnitude == pytest.approx(naive.magnitude, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(fitted_world(), st.integers(0, 24), st.floats(1e4, 1e6))
def test_removing_identified_anomaly_never_increases_residual(world, flow_seed, size):
    model, routing, data, rng = world
    flow = flow_seed % routing.num_flows
    theta = routing.normalized_columns()
    y = data[3] + size * routing.column(flow)
    result = identify_single_flow(model, theta, y)
    assert result.residual_spe <= float(model.spe(y)) + 1e-6


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 24), st.floats(1e-3, 1e8), st.sampled_from([-1.0, 1.0]))
def test_quantification_linear_in_magnitude(flow_seed, size, sign):
    network = ring_network(5)
    routing = build_routing_matrix(network, SPFRouting(network).compute())
    flow = flow_seed % routing.num_flows
    magnitude = sign * size
    single = quantify_from_magnitude(routing, flow, magnitude)
    double = quantify_from_magnitude(routing, flow, 2 * magnitude)
    assert double == pytest.approx(2 * single, rel=1e-12)
    # Sign is preserved.
    assert np.sign(single) == np.sign(magnitude)


def frozen_identify_block(model, directions, measurements):
    """``identify_block`` as it computed before the identification
    state existed, frozen: the projector residual, the per-call
    signature energies, then the score/argmax/magnitude algebra.

    Returns ``(winners, magnitudes, residual_spe, scores)``.
    """
    theta = np.asarray(directions, dtype=np.float64)
    measurements = np.asarray(measurements, dtype=np.float64)
    if measurements.ndim == 1:
        measurements = measurements[None, :]
    projector = model.anomalous_projector
    residuals = (measurements - model.pca.mean) @ projector.T
    theta_tilde = projector @ theta
    energy = np.einsum("ij,ij->j", theta_tilde, theta_tilde)
    if not np.any(energy > 1e-12):
        raise ModelError(
            "no candidate anomaly is visible in the residual subspace"
        )
    valid = energy > 1e-12
    inner = residuals @ theta
    inv_energy = np.where(valid, 1.0 / np.where(valid, energy, 1.0), 0.0)
    scores = np.where(valid[None, :], inner**2 * inv_energy[None, :], -np.inf)
    winners = np.argmax(scores, axis=1)
    rows = np.arange(residuals.shape[0])
    magnitudes = inner[rows, winners] * inv_energy[winners]
    spe = np.einsum("ij,ij->i", residuals, residuals)
    return winners, magnitudes, spe - scores[rows, winners], scores


def as_tuple(identification):
    return (
        identification.flow_indices,
        identification.magnitudes,
        identification.residual_spe,
        identification.scores,
    )


def bitwise_equal(left, right) -> bool:
    return all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(left, right)
    )


@st.composite
def identification_cases(draw):
    """A fitted model, a candidate set and a block of measurements.

    Candidates may lie inside the normal subspace (under the 1e-12
    cutoff), all of them may (or the rank may leave no residual
    subspace), and columns may repeat exactly, so scores tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 9))
    data = rng.normal(size=(40, m)) @ rng.normal(size=(m, m))
    # Mostly a split subspace; rank 0 (no normal subspace) and rank m
    # (no residual subspace, nothing visible) now and then.
    rank = draw(st.one_of(st.integers(1, m - 1), st.sampled_from([0, m])))
    model = SubspaceModel.with_rank(PCA().fit(data), rank)
    n = draw(st.integers(1, 8))
    theta = rng.normal(size=(m, n))
    basis = model.normal_basis
    inside = draw(st.sampled_from(["none", "some", "all"]))
    if basis.shape[1] and inside != "none":
        chosen = rng.random(n) < 0.4
        chosen[int(rng.integers(0, n))] = True
        for j in range(n):
            if inside == "all" or chosen[j]:
                theta[:, j] = basis @ rng.normal(size=basis.shape[1])
    for j in range(1, n):
        if rng.random() < 0.3:
            theta[:, j] = theta[:, int(rng.integers(0, j))]
    theta /= np.linalg.norm(theta, axis=0)
    block = data[rng.integers(0, 40, size=draw(st.integers(1, 6)))]
    block = block + 20.0 * theta[:, rng.integers(0, n, size=block.shape[0])].T
    return model, theta, block


@settings(max_examples=200, deadline=None)
@given(identification_cases())
def test_state_routes_equal_the_frozen_arithmetic_bitwise(case):
    """``IdentificationState.identify``, ``identify_block`` and, row by
    row, ``identify_each`` return the frozen arithmetic's bits; an
    all-invisible candidate set raises the same error on every route;
    exact ties go to the lowest index."""
    model, theta, block = case
    state = IdentificationState(model, theta)
    try:
        expected = frozen_identify_block(model, theta, block)
    except ModelError as err:
        assert not state.visible
        for route in (
            state.identify,
            state.identify_each,
            lambda rows: identify_block(model, theta, rows),
        ):
            with pytest.raises(ModelError, match=str(err)):
                route(block)
        return
    assert state.visible
    assert bitwise_equal(as_tuple(state.identify(block)), expected)
    assert bitwise_equal(as_tuple(identify_block(model, theta, block)), expected)
    each = as_tuple(state.identify_each(block))
    for row in range(block.shape[0]):
        alone = frozen_identify_block(model, theta, block[row])
        assert bitwise_equal([part[row : row + 1] for part in each], alone)
    winners, _, _, scores = expected
    for row, winner in enumerate(winners):
        assert winner == np.flatnonzero(scores[row] == scores[row].max())[0]


def test_state_arrays_are_read_only_views():
    """The cached arrays cannot be written, and building a state leaves
    the caller's direction matrix writeable."""
    rng = np.random.default_rng(3)
    model = SubspaceModel.with_rank(PCA().fit(rng.normal(size=(30, 5))), 2)
    theta = rng.normal(size=(5, 4))
    theta /= np.linalg.norm(theta, axis=0)
    state = IdentificationState(model, theta, [("a", "b")] * 4)
    assert theta.flags.writeable
    for array in (state.directions, state.energy, state.valid, state.inv_energy):
        assert not array.flags.writeable
    assert state.od_pairs == (("a", "b"),) * 4
