"""DetectionPipeline: end-to-end behavior and per-module parity."""

import numpy as np
import pytest

from repro.core import AnomalyDiagnoser, SPEDetector
from repro.datasets.synthetic import dataset_from_config
from repro.exceptions import ModelError
from repro.pipeline import DetectionPipeline
from repro.traffic.workloads import workload_for


@pytest.fixture(scope="module")
def clean_abilene():
    """Two Abilene-style days with no planted anomalies."""
    config = workload_for("abilene").with_overrides(
        name="abilene-clean",
        num_bins=288,
        num_anomalies=0,
        traffic_seed=4242,
    )
    return dataset_from_config(config)


@pytest.fixture(scope="module")
def injected_world(clean_abilene):
    """Clean traffic plus three hand-planted spikes on known flows."""
    routing = clean_abilene.routing
    measurements = clean_abilene.link_traffic.copy()
    spikes = {
        40: routing.od_index("nycm", "losa"),
        150: routing.od_index("chin", "atla"),
        250: routing.od_index("dnvr", "hstn"),
    }
    for time_bin, flow in spikes.items():
        measurements[time_bin] += 2.5e8 * routing.matrix[:, flow]
    return clean_abilene, measurements, spikes


class TestEndToEnd:
    def test_injected_anomalies_are_flagged_and_identified(self, injected_world):
        dataset, measurements, spikes = injected_world
        pipeline = DetectionPipeline(confidence=0.999).fit(
            dataset.link_traffic, routing=dataset.routing
        )
        result = pipeline.detect(measurements)
        flagged = set(result.anomalous_bins.tolist())
        assert set(spikes) <= flagged
        by_bin = dict(zip(result.anomalous_bins.tolist(), result.flow_indices))
        for time_bin, flow in spikes.items():
            assert by_bin[time_bin] == flow

    def test_quantification_recovers_spike_size(self, injected_world):
        dataset, measurements, spikes = injected_world
        pipeline = DetectionPipeline().fit(
            dataset.link_traffic, routing=dataset.routing
        )
        result = pipeline.detect(measurements)
        estimates = dict(
            zip(result.anomalous_bins.tolist(), result.estimated_bytes)
        )
        for time_bin in spikes:
            assert estimates[time_bin] == pytest.approx(2.5e8, rel=0.2)

    def test_from_dataset_equals_manual_fit(self, clean_abilene):
        auto = DetectionPipeline.from_dataset(clean_abilene)
        manual = DetectionPipeline().fit(
            clean_abilene.link_traffic, routing=clean_abilene.routing
        )
        assert auto.threshold == manual.threshold
        assert auto.normal_rank == manual.normal_rank


class TestPerModuleParity:
    """The acceptance bar: identical results to the per-module path."""

    def test_flags_match_spedetector(self, injected_world):
        dataset, measurements, _ = injected_world
        pipeline = DetectionPipeline(confidence=0.999).fit(
            dataset.link_traffic, routing=dataset.routing
        )
        reference = SPEDetector(confidence=0.999).fit(dataset.link_traffic)
        expected = reference.detect(measurements)
        result = pipeline.detect(measurements)
        assert result.threshold == expected.threshold
        assert np.array_equal(result.flags, expected.flags)
        assert np.allclose(result.spe, expected.spe, rtol=1e-12)

    def test_diagnoses_match_anomaly_diagnoser(self, injected_world):
        dataset, measurements, _ = injected_world
        pipeline = DetectionPipeline(confidence=0.999).fit(
            dataset.link_traffic, routing=dataset.routing
        )
        reference = AnomalyDiagnoser(confidence=0.999).fit(
            dataset.link_traffic, dataset.routing
        )
        expected = reference.diagnose(measurements)
        got = pipeline.detect(measurements).diagnoses()
        assert len(got) == len(expected)
        for ours, theirs in zip(got, expected):
            assert ours.time_bin == theirs.time_bin
            assert ours.flow_index == theirs.flow_index
            assert ours.od_pair == theirs.od_pair
            assert ours.spe == pytest.approx(theirs.spe, rel=1e-12)
            assert ours.magnitude == pytest.approx(theirs.magnitude, rel=1e-9)
            assert ours.estimated_bytes == pytest.approx(
                theirs.estimated_bytes, rel=1e-9
            )

    def test_confidence_override_matches(self, injected_world):
        dataset, measurements, _ = injected_world
        pipeline = DetectionPipeline(confidence=0.999).fit(
            dataset.link_traffic, routing=dataset.routing
        )
        reference = SPEDetector(confidence=0.999).fit(dataset.link_traffic)
        result = pipeline.detect(measurements, confidence=0.995)
        expected = reference.detect(measurements, confidence=0.995)
        assert result.threshold == expected.threshold
        assert np.array_equal(result.flags, expected.flags)


class TestApiEdges:
    def test_detection_only_without_routing(self, injected_world):
        dataset, measurements, spikes = injected_world
        pipeline = DetectionPipeline().fit(dataset.link_traffic)
        result = pipeline.detect(measurements)
        assert set(spikes) <= set(result.anomalous_bins.tolist())
        assert result.flow_indices.size == 0
        assert not result.identified
        with pytest.raises(ModelError):
            result.diagnoses()

    def test_alarm_no_flow_can_explain_detects_only(self, blind_routing):
        """A model that sees no flow flags the spike and reports it
        unidentified, as without routing, instead of raising."""
        warmup, routing, block = blind_routing
        pipeline = DetectionPipeline(normal_rank=2).fit(
            warmup, routing=routing
        )
        result = pipeline.detect(block)
        assert result.anomalous_bins.tolist() == [1]
        assert not result.identified
        assert result.flow_indices.size == 0
        assert result.od_pairs == ()

    def test_single_vector_detect(self, injected_world):
        dataset, measurements, spikes = injected_world
        pipeline = DetectionPipeline().fit(
            dataset.link_traffic, routing=dataset.routing
        )
        time_bin = next(iter(spikes))
        result = pipeline.detect(measurements[time_bin])
        assert result.flags.shape == (1,)
        assert result.num_alarms == 1

    def test_unfitted_pipeline_reports_state(self):
        pipeline = DetectionPipeline()
        assert not pipeline.is_fitted
        with pytest.raises(ModelError):
            pipeline.detect(np.zeros((4, 3)))

    def test_routing_dimension_mismatch_rejected(self, clean_abilene):
        with pytest.raises(ModelError):
            DetectionPipeline().fit(
                clean_abilene.link_traffic[:, :5], routing=clean_abilene.routing
            )

    def test_non_2d_training_rejected(self, clean_abilene):
        with pytest.raises(ModelError):
            DetectionPipeline().fit(clean_abilene.link_traffic[0])
