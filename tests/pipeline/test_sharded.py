"""Tests for repro.pipeline.sharded (the sharded detection plane)."""

import json

import numpy as np
import pytest

from repro.core import SPEDetector, SufficientStats
from repro.core.suffstats import DEFAULT_TILE_ROWS, canonical_units
from repro.exceptions import ModelError, ValidationError
from repro.pipeline.sharded import (
    FUSION_MODES,
    SpatialCoordinator,
    TemporalCoordinator,
    partition_links,
    temporal_fit_matches_monolithic,
)


@pytest.fixture(scope="module")
def tall_block():
    rng = np.random.default_rng(9)
    t, m = 2600, 18
    base = 1e7 * (1.4 + np.sin(2 * np.pi * np.arange(t) / 144.0))[:, None]
    block = np.abs(
        base
        * rng.uniform(0.5, 2.0, size=m)
        * (1.0 + 0.08 * rng.standard_normal((t, m)))
    )
    block[1200] *= 2.5
    block[2000, :6] *= 3.0
    return block


def canonical_tiles(block):
    """A block's rows as the canonical units ``fit_from_stats`` scores."""
    return tuple(
        block[lo:hi]
        for lo, hi in canonical_units([(0, len(block))], DEFAULT_TILE_ROWS)
    )


class TestTemporal:
    def test_exact_match_monolithic_pinned(self, tall_block):
        """The acceptance gate: a model fitted from merged chunk stats
        is bit-identical to the monolithic gram fit."""
        fit = TemporalCoordinator(num_shards=5, workers=1).fit(tall_block)
        assert temporal_fit_matches_monolithic(fit, tall_block)
        reference = SPEDetector(svd_method="gram").fit(tall_block)
        assert np.array_equal(
            fit.pca.components, reference.model.pca.components
        )
        assert np.array_equal(fit.pca.mean, reference.model.pca.mean)
        assert fit.detector.threshold == reference.threshold
        assert fit.detector.normal_rank == reference.normal_rank

    def test_serial_equals_parallel(self, tall_block):
        serial = TemporalCoordinator(num_shards=4, workers=1).fit(tall_block)
        parallel = TemporalCoordinator(num_shards=4, workers=3).fit(
            tall_block
        )
        assert np.array_equal(
            serial.pca.components, parallel.pca.components
        )
        assert serial.detector.threshold == parallel.detector.threshold
        assert serial.detector.normal_rank == parallel.detector.normal_rank

    def test_shared_memory_transport_gives_the_fork_bits(
        self, tall_block, force_shared_memory
    ):
        """The transport of non-fork platforms: the matrix travels in a
        shared-memory segment, the fit is bit for bit the fork path's,
        and the segment is unlinked afterwards."""
        fork = TemporalCoordinator(num_shards=4, workers=2).fit(tall_block)
        created = force_shared_memory()
        shared = TemporalCoordinator(num_shards=4, workers=2).fit(tall_block)
        assert len(created) == 1
        assert created.all_unlinked()
        ours, theirs = shared.detector.model, fork.detector.model
        assert np.array_equal(ours.pca.mean, theirs.pca.mean)
        assert np.array_equal(ours.pca.components, theirs.pca.components)
        assert np.array_equal(
            ours.pca.captured_variance(), theirs.pca.captured_variance()
        )
        assert np.array_equal(
            ours.separation.max_deviations, theirs.separation.max_deviations
        )
        assert shared.detector.normal_rank == fork.detector.normal_rank
        assert shared.detector.threshold == fork.detector.threshold
        assert temporal_fit_matches_monolithic(shared, tall_block)

    def test_shard_count_does_not_change_the_model(self, tall_block):
        fits = [
            TemporalCoordinator(num_shards=n, workers=1).fit(tall_block)
            for n in (1, 3, 8)
        ]
        for fit in fits[1:]:
            assert np.array_equal(
                fits[0].pca.components, fit.pca.components
            )
            assert fits[0].detector.threshold == fit.detector.threshold

    def test_detection_matches_monolithic_end_to_end(self, tall_block):
        fit = TemporalCoordinator(num_shards=4, workers=1).fit(tall_block)
        reference = SPEDetector(svd_method="gram").fit(tall_block)
        ours = fit.detector.detect(tall_block)
        theirs = reference.detect(tall_block)
        assert np.array_equal(ours.flags, theirs.flags)
        assert np.allclose(ours.spe, theirs.spe, rtol=1e-12)
        assert ours.flags[1200] and ours.flags[2000]

    def test_explicit_rank_skips_separation_pass(self, tall_block):
        fit = TemporalCoordinator(
            num_shards=3, workers=1, normal_rank=2
        ).fit(tall_block)
        assert fit.detector.normal_rank == 2
        assert fit.separation is None
        assert all(
            timing.moments_seconds == 0.0
            for timing in fit.report.worker_timings
        )

    def test_detector_records_requested_configuration(self, tall_block):
        """The packaged detector carries the coordinator's parameters —
        rank None when separation chose it — so refitting from them
        reproduces an equivalently configured monolithic fit."""
        fit = TemporalCoordinator(
            num_shards=3, workers=1, threshold_sigma=2.5
        ).fit(tall_block)
        assert fit.detector.requested_rank is None
        assert fit.detector.threshold_sigma == 2.5
        assert fit.separation is not None

    def test_equivalence_check_rejects_forged_rank(self, tall_block):
        """The exactness gate is not circular: a fit whose rank diverges
        from the monolithic separation rule must fail the checker."""
        import copy
        from dataclasses import replace

        from repro.core.subspace import SubspaceModel

        fit = TemporalCoordinator(num_shards=3, workers=1).fit(tall_block)

        def forged(rank, separation):
            """The fit with its detector's model swapped for a forgery;
            the detector's requested settings stay the fit's own."""
            model = SubspaceModel(fit.pca, rank)
            model.separation = separation
            detector = copy.copy(fit.detector)
            detector._model = model
            return replace(fit, detector=detector)

        wrong_rank = fit.detector.normal_rank + 2
        assert not temporal_fit_matches_monolithic(
            forged(wrong_rank, fit.separation), tall_block
        )

        # The separation is compared bit for bit: deviations one ulp
        # off, at the same rank, fail too.
        separation = fit.separation
        deviations = separation.max_deviations.copy()
        deviations[0] = np.nextafter(deviations[0], np.inf)
        ulp = forged(
            fit.detector.normal_rank,
            replace(separation, max_deviations=deviations),
        )
        assert temporal_fit_matches_monolithic(fit, tall_block)
        assert temporal_fit_matches_monolithic(
            forged(fit.detector.normal_rank, separation), tall_block
        )
        assert not temporal_fit_matches_monolithic(ulp, tall_block)

    @pytest.mark.parametrize("width", [1, 17])
    def test_fit_from_stats_rejects_a_replay_of_another_width(
        self, tall_block, width
    ):
        stats = SufficientStats.from_block(tall_block)
        with pytest.raises(ModelError, match=rf"\(1024, {width}\).* 18 links"):
            TemporalCoordinator().fit_from_stats(
                stats, canonical_tiles(tall_block[:, :width])
            )

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda b: (b[:1000], b[1000:]), id="short_first_tile"),
            pytest.param(lambda b: canonical_tiles(b)[:-1], id="missing_tail"),
            pytest.param(lambda b: canonical_tiles(b[:-5]), id="short_tail"),
            pytest.param(lambda b: (), id="no_tiles"),
        ],
    )
    def test_fit_from_stats_scores_only_canonical_tiles(
        self, tall_block, monkeypatch, cut
    ):
        """Tiles that are not the statistics' rows in canonical units
        raise before any of them is scored."""
        scored = []
        monkeypatch.setattr(
            "repro.core.detection.score_moments",
            lambda *args: scored.append(args),
        )
        stats = SufficientStats.from_block(tall_block)
        with pytest.raises(ModelError, match="rows"):
            TemporalCoordinator().fit_from_stats(stats, cut(tall_block))
        assert scored == []

    def test_fit_from_stats_with_a_rank_needs_no_tiles(
        self, tall_block, monkeypatch
    ):
        scored = []
        monkeypatch.setattr(
            "repro.core.detection.score_moments",
            lambda *args: scored.append(args),
        )
        coordinator = TemporalCoordinator(workers=1, normal_rank=3)
        fit = coordinator.fit_from_stats(SufficientStats.from_block(tall_block))
        reference = coordinator.fit(tall_block)
        assert scored == []
        assert fit.separation is None
        assert np.array_equal(fit.pca.components, reference.pca.components)
        assert fit.detector.normal_rank == reference.detector.normal_rank == 3
        assert fit.detector.threshold == reference.detector.threshold

    def test_validation(self, tall_block):
        with pytest.raises(ValidationError):
            TemporalCoordinator(num_shards=0)
        with pytest.raises(ValidationError):
            TemporalCoordinator(workers=0)
        with pytest.raises(ModelError):
            TemporalCoordinator().fit(tall_block[0])

    def test_report_shape_and_byte_stability(self, tall_block):
        serial = TemporalCoordinator(num_shards=4, workers=1).fit(
            tall_block
        )
        parallel = TemporalCoordinator(num_shards=4, workers=2).fit(
            tall_block
        )
        a = serial.report.to_json(include_timings=False)
        b = parallel.report.to_json(include_timings=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )
        assert a["schema_version"] == 1
        assert a["mode"] == "temporal"
        assert a["grid"]["num_shards"] == 4
        assert "elapsed_seconds" not in a

    def test_report_timing_breakdown(self, tall_block):
        fit = TemporalCoordinator(num_shards=3, workers=1).fit(tall_block)
        payload = fit.report.to_json(include_timings=True)
        assert payload["elapsed_seconds"] > 0
        assert len(payload["worker_timings"]) == 3
        for entry in payload["worker_timings"]:
            assert set(entry) == {
                "worker",
                "start",
                "size",
                "stats_seconds",
                "moments_seconds",
            }
            assert entry["stats_seconds"] >= 0
        assert sum(e["size"] for e in payload["worker_timings"]) == (
            tall_block.shape[0]
        )
        assert payload["merge_seconds"] >= 0
        assert payload["fit_seconds"] >= 0


class TestPartitionLinks:
    def test_contiguous_covers_all_links_once(self):
        zones = partition_links(10, 3)
        combined = np.concatenate(zones)
        assert sorted(combined.tolist()) == list(range(10))
        assert [z.size for z in zones] == [4, 3, 3]

    def test_round_robin_stripes(self):
        zones = partition_links(7, 3, scheme="round-robin")
        assert zones[0].tolist() == [0, 3, 6]
        assert zones[1].tolist() == [1, 4]
        combined = np.concatenate(zones)
        assert sorted(combined.tolist()) == list(range(7))

    def test_validation(self):
        with pytest.raises(ValidationError):
            partition_links(4, 0)
        with pytest.raises(ValidationError):
            partition_links(2, 3)
        with pytest.raises(ValidationError):
            partition_links(4, 2, scheme="random")


class TestSpatial:
    @pytest.fixture(scope="class")
    def fit(self, tall_block):
        return SpatialCoordinator(num_zones=3, workers=1).fit(tall_block)

    def test_zone_structure(self, fit, tall_block):
        model = fit.model
        assert model.num_zones == 3
        assert model.num_links == tall_block.shape[1]
        assert len(model.zone_ranks) == 3
        spe = model.zone_spe(tall_block)
        assert spe.shape == (tall_block.shape[0], 3)
        assert np.all(spe >= 0)

    def test_fused_scores_per_mode(self, fit, tall_block):
        model = fit.model
        spe = model.zone_spe(tall_block)
        ratios = spe / model.zone_thresholds()
        assert np.array_equal(
            model.fuse(spe, "union"), ratios.max(axis=1)
        )
        assert np.array_equal(model.fuse(spe, "rescore"), spe.sum(axis=1))
        vote = model.fuse(spe, "vote")
        assert np.all(vote <= model.fuse(spe, "union"))
        with pytest.raises(ModelError, match="unknown fusion"):
            model.fuse(spe, "quorum")

    def test_union_alarm_iff_any_zone_alarms(self, fit, tall_block):
        model = fit.model
        spe = model.zone_spe(tall_block)
        per_zone = spe > model.zone_thresholds()
        assert np.array_equal(
            model.alarms(tall_block, "union"), per_zone.any(axis=1)
        )
        votes_needed = model.votes
        assert np.array_equal(
            model.alarms(tall_block, "vote"),
            per_zone.sum(axis=1) >= votes_needed,
        )

    def test_rescore_threshold_is_pooled_q_statistic(self, fit):
        from repro.core import q_threshold

        model = fit.model
        pooled = model.pooled_residual_eigenvalues()
        assert model.rescore_threshold() == q_threshold(
            pooled, confidence=model.confidence
        )
        assert model.rescore_threshold(0.95) < model.rescore_threshold(
            0.9999
        )

    def test_detects_the_injected_anomalies(self, fit, tall_block):
        for fusion in FUSION_MODES:
            alarms = fit.model.alarms(tall_block, fusion)
            assert alarms[1200] or alarms[2000], fusion

    def test_serial_equals_parallel(self, tall_block):
        serial = SpatialCoordinator(num_zones=3, workers=1).fit(tall_block)
        parallel = SpatialCoordinator(num_zones=3, workers=2).fit(
            tall_block
        )
        for fusion in FUSION_MODES:
            assert np.array_equal(
                serial.model.fused_score(tall_block, fusion),
                parallel.model.fused_score(tall_block, fusion),
            )

    def test_report_fields(self, fit, tall_block):
        payload = fit.report.to_json()
        assert payload["mode"] == "spatial"
        assert len(payload["model"]["normal_rank"]) == 3
        assert set(payload["fusion_thresholds"]) == set(FUSION_MODES)
        assert payload["fuse_seconds"] >= 0
        stable = fit.report.to_json(include_timings=False)
        assert "fuse_seconds" not in stable
        assert "worker_timings" not in stable

    def test_validation(self, tall_block):
        with pytest.raises(ValidationError):
            SpatialCoordinator(num_zones=0)
        with pytest.raises(ValidationError):
            SpatialCoordinator(votes=0)
        with pytest.raises(ValidationError):
            SpatialCoordinator(num_zones=2, votes=5).fit(tall_block)
        with pytest.raises(ValidationError):
            SpatialCoordinator(num_zones=100).fit(tall_block)
        with pytest.raises(ModelError):
            fit = SpatialCoordinator(num_zones=2).fit(tall_block)
            fit.model.zone_spe(tall_block[:, :5])
