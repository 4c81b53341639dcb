"""Tests for repro.core.identification (§5.2, Eq. 1; §7.2)."""

import numpy as np
import pytest

from repro.core import (
    SPEDetector,
    identify_multi_flow,
    identify_multi_flow_block,
    identify_single_flow,
)
from repro.core.identification import (
    IdentificationState,
    _identify_multi_flow_loop,
    identify_single_flow_naive,
    residual_scores,
)
from repro.exceptions import ModelError


@pytest.fixture
def fitted(sprint1):
    detector = SPEDetector().fit(sprint1.link_traffic)
    return detector.model, sprint1.routing.normalized_columns()


def inject(sprint1, time_bin, flow_index, size):
    y = sprint1.link_traffic[time_bin].copy()
    return y + size * sprint1.routing.column(flow_index)


class TestSingleFlow:
    def test_recovers_injected_flow(self, fitted, sprint1):
        model, theta = fitted
        flow = sprint1.routing.od_index("par", "vie")
        y = inject(sprint1, 400, flow, 5e7)
        result = identify_single_flow(model, theta, y)
        assert result.flow_index == flow

    def test_magnitude_close_to_injection(self, fitted, sprint1):
        model, theta = fitted
        flow = sprint1.routing.od_index("par", "vie")
        size = 5e7
        y = inject(sprint1, 400, flow, size)
        result = identify_single_flow(model, theta, y)
        path_norm = np.linalg.norm(sprint1.routing.column(flow))
        # f = b * ||A_i|| up to leakage into the normal subspace.
        assert result.magnitude == pytest.approx(size * path_norm, rel=0.25)

    def test_negative_anomaly_gets_negative_magnitude(self, fitted, sprint1):
        model, theta = fitted
        flow = sprint1.routing.od_index("lon", "par")
        base = sprint1.link_traffic[300]
        drop = np.minimum(5e7, base[sprint1.routing.matrix[:, flow] > 0].min())
        y = inject(sprint1, 300, flow, -drop)
        result = identify_single_flow(model, theta, y)
        if result.flow_index == flow:
            assert result.magnitude < 0

    def test_matches_naive_equation_one(self, fitted, sprint1):
        """The closed form must agree with the literal Eq.-1 search."""
        model, theta = fitted
        for time_bin in (100, 400, 700):
            y = inject(sprint1, time_bin, 42, 4e7)
            fast = identify_single_flow(model, theta, y)
            naive = identify_single_flow_naive(model, theta, y)
            assert fast.flow_index == naive.flow_index
            assert fast.magnitude == pytest.approx(naive.magnitude, rel=1e-9)
            assert fast.residual_spe == pytest.approx(naive.residual_spe, rel=1e-6)

    def test_residual_spe_decreases(self, fitted, sprint1):
        """Removing the best hypothesis must reduce residual energy."""
        model, theta = fitted
        y = inject(sprint1, 250, 10, 4e7)
        result = identify_single_flow(model, theta, y)
        original_spe = float(model.spe(y))
        assert result.residual_spe < original_spe

    def test_scores_shape(self, fitted, sprint1):
        model, theta = fitted
        scores = residual_scores(model, theta, model.residual(sprint1.link_traffic[5]))
        assert scores.shape == (sprint1.num_flows,)

    def test_direction_shape_validation(self, fitted):
        model, theta = fitted
        with pytest.raises(ModelError):
            residual_scores(model, theta[:10], np.zeros(model.num_links))
        with pytest.raises(ModelError):
            residual_scores(model, theta, np.zeros(3))


class TestMultiFlow:
    def test_recovers_two_flow_anomaly(self, fitted, sprint1):
        """The §7.2 extension: an anomaly spanning two OD flows with
        different intensities."""
        model, theta = fitted
        routing = sprint1.routing
        f1 = routing.od_index("lon", "mil")
        f2 = routing.od_index("mad", "sto")
        y = sprint1.link_traffic[600].copy()
        y = y + 4e7 * routing.column(f1) + 2.5e7 * routing.column(f2)

        # Hypotheses: several single flows plus the true pair.
        singles = [theta[:, [j]] for j in (f1, f2, 0, 5)]
        pair = theta[:, [f1, f2]]
        hypotheses = singles + [pair]
        result = identify_multi_flow(model, hypotheses, y)
        assert result.hypothesis_index == len(hypotheses) - 1
        assert result.magnitudes.shape == (2,)

    def test_intensities_approximate_injections(self, fitted, sprint1):
        model, theta = fitted
        routing = sprint1.routing
        f1 = routing.od_index("lon", "mil")
        f2 = routing.od_index("mad", "sto")
        y = sprint1.link_traffic[600].copy()
        y = y + 4e7 * routing.column(f1) + 2.5e7 * routing.column(f2)
        result = identify_multi_flow(model, [theta[:, [f1, f2]]], y)
        n1 = np.linalg.norm(routing.column(f1))
        n2 = np.linalg.norm(routing.column(f2))
        assert result.magnitudes[0] == pytest.approx(4e7 * n1, rel=0.3)
        assert result.magnitudes[1] == pytest.approx(2.5e7 * n2, rel=0.3)

    def test_single_column_hypothesis_matches_single_flow(self, fitted, sprint1):
        model, theta = fitted
        y = inject(sprint1, 350, 17, 5e7)
        single = identify_single_flow(model, theta, y)
        multi = identify_multi_flow(
            model, [theta[:, [j]] for j in range(theta.shape[1])], y
        )
        assert multi.hypothesis_index == single.flow_index

    def test_empty_hypotheses_rejected(self, fitted, sprint1):
        model, _ = fitted
        with pytest.raises(ModelError):
            identify_multi_flow(model, [], sprint1.link_traffic[0])

    def test_wrong_rows_rejected(self, fitted, sprint1):
        model, _ = fitted
        with pytest.raises(ModelError):
            identify_multi_flow(model, [np.ones((3, 1))], sprint1.link_traffic[0])

    def test_non_finite_measurement_degenerates_loudly(self, fitted):
        """Non-finite energies never dethrone the greedy incumbent; the
        rewrite must keep raising rather than return hypothesis 0."""
        model, theta = fitted
        bad = np.full(model.num_links, np.inf)
        with np.errstate(invalid="ignore"):  # inf - inf inside residual
            with pytest.raises(ModelError, match="degenerate"):
                identify_multi_flow(
                    model, [theta[:, [0]], theta[:, [1, 2]]], bad
                )

    def test_block_measurement_rejected(self, fitted, sprint1):
        """A (t, m) block must not be silently truncated to its first
        row — that is identify_multi_flow_block's job."""
        model, theta = fitted
        with pytest.raises(ModelError, match="block"):
            identify_multi_flow(
                model, [theta[:, [0]]], sprint1.link_traffic[:5]
            )


class TestMultiFlowVectorized:
    """The batched hypothesis algebra must agree with the greedy
    loop-over-lstsq reference (per-hypothesis, mixed widths, rank
    deficiency)."""

    @staticmethod
    def _hypotheses(theta, rng, num_singles=30, num_pairs=15, num_triples=5):
        n = theta.shape[1]
        hyps = [theta[:, [j]] for j in rng.choice(n, num_singles, replace=False)]
        for _ in range(num_pairs):
            i, j = rng.choice(n, 2, replace=False)
            hyps.append(theta[:, [i, j]])
        for _ in range(num_triples):
            hyps.append(theta[:, rng.choice(n, 3, replace=False)])
        return hyps

    def test_matches_loop_reference(self, fitted, sprint1, rng):
        model, theta = fitted
        hyps = self._hypotheses(theta, rng)
        for time_bin in (120, 480, 840):
            y = sprint1.link_traffic[time_bin] + 4e7 * sprint1.routing.column(
                int(rng.integers(sprint1.num_flows))
            )
            fast = identify_multi_flow(model, hyps, y)
            slow = _identify_multi_flow_loop(model, hyps, y)
            assert fast.hypothesis_index == slow.hypothesis_index
            assert fast.magnitudes == pytest.approx(
                slow.magnitudes, rel=1e-8, abs=1e-6
            )
            assert fast.residual_spe == pytest.approx(
                slow.residual_spe, rel=1e-6
            )

    def test_rank_deficient_hypothesis_matches_loop(self, fitted, sprint1):
        """Two identical columns: the pseudoinverse must degrade exactly
        as lstsq does (minimum-norm solution)."""
        model, theta = fitted
        degenerate = theta[:, [7, 7]]
        hyps = [theta[:, [7]], degenerate, theta[:, [7, 12]]]
        y = sprint1.link_traffic[300] + 3e7 * sprint1.routing.column(7)
        fast = identify_multi_flow(model, hyps, y)
        slow = _identify_multi_flow_loop(model, hyps, y)
        assert fast.hypothesis_index == slow.hypothesis_index
        assert fast.residual_spe == pytest.approx(slow.residual_spe, rel=1e-6)

    def test_block_matches_per_timestep(self, fitted, sprint1, rng):
        model, theta = fitted
        hyps = self._hypotheses(theta, rng, num_singles=12, num_pairs=6,
                                num_triples=3)
        block = sprint1.link_traffic[250:280]
        result = identify_multi_flow_block(model, hyps, block)
        assert len(result) == 30
        assert result.spe_after.shape == (30, len(hyps))
        for t in range(len(result)):
            single = identify_multi_flow(model, hyps, block[t])
            assert single.hypothesis_index == result.hypothesis_indices[t]
            assert single.residual_spe == pytest.approx(
                float(result.residual_spe[t])
            )
            assert single.magnitudes == pytest.approx(result.magnitudes[t])

    def test_block_single_vector_input(self, fitted, sprint1):
        model, theta = fitted
        result = identify_multi_flow_block(
            model, [theta[:, [3]]], sprint1.link_traffic[10]
        )
        assert len(result) == 1

    def test_block_wrong_width_rejected(self, fitted, sprint1):
        model, theta = fitted
        with pytest.raises(ModelError):
            identify_multi_flow_block(
                model, [theta[:, [0]]], sprint1.link_traffic[:5, :7]
            )


class TestIdentifyEachAtServiceWidth:
    @pytest.mark.parametrize("size", [2, 3, 7, 50, 51, 64])
    def test_rows_equal_their_one_row_identification(
        self, fitted, sprint1, size
    ):
        """At the service's width (sprint-1: 49 links, 169 flows), row
        ``i`` of ``identify_each(block)`` is ``identify(block[i])`` bit
        for bit: flow, magnitude, residual SPE and scores.  The rows of
        a centered block sit at 8-byte offsets that a fresh one-row
        array never has, so this pins that no BLAS path at this width
        depends on the offset.  Every row carries a storm spike, as in
        the service's alarm-storm bench, so every row is identified."""
        model, theta = fitted
        state = IdentificationState(model, theta)
        rows = sprint1.link_traffic.copy()
        rows[:, 0] += 5e8
        for start in range(0, rows.shape[0] - size + 1, size):
            block = rows[start : start + size]
            each = state.identify_each(block)
            for i in range(size):
                alone = state.identify(block[i])
                for name in (
                    "flow_indices", "magnitudes", "residual_spe", "scores"
                ):
                    got = getattr(each, name)[i : i + 1]
                    want = getattr(alone, name)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (name, start + i)
