"""ScenarioRunner end-to-end contracts and grid-engine wiring."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.pipeline import BatchRunner, ComparisonRunner, DetectionPipeline
from repro.scenarios import (
    CORE_SUITE,
    ScenarioRunner,
    compile_scenario,
    get_spec,
    streaming_matches_batch,
    suite_datasets,
)
from repro.scenarios.runner import SCHEMA_VERSION, canonical_json


class TestCoreOutcomes:
    def test_one_outcome_per_scenario(self, core_report):
        assert len(core_report) == len(CORE_SUITE)
        assert [o.name for o in core_report] == [s.name for s in CORE_SUITE]

    def test_exercises_at_least_six_families(self, core_report):
        assert len(core_report.families()) >= 6

    def test_streaming_parity_holds_everywhere(self, core_report):
        assert all(o.streaming_parity for o in core_report)

    def test_large_events_are_detected(self, core_report):
        """Every family built to be visible actually raises alarms."""
        for name in (
            "ddos-ramp-victim",
            "flash-crowd-rush",
            "ingress-outage-dark",
            "routing-shift-exodus",
            "multi-flow-overlap",
        ):
            outcome = core_report.outcome(name)
            assert outcome.num_detected_events >= 1, name

    def test_multi_flow_recovery_where_single_flow_fails(self, core_report):
        """The flash crowd defeats single-flow identification but the
        true member set wins the generalized §7.2 hypothesis contest."""
        outcome = core_report.outcome("flash-crowd-rush")
        event = outcome.events[0]
        assert event.detected
        assert event.multi_flow_identified

    def test_alarm_bins_fall_inside_trace(self, core_report):
        for outcome in core_report:
            for time_bin in outcome.anomalous_bins:
                assert 0 <= time_bin < outcome.num_bins
            assert len(outcome.identified_flows) == len(
                outcome.anomalous_bins
            )

    def test_outcome_lookup(self, core_report):
        assert core_report.outcome("spike-classic").topology == "toy"
        with pytest.raises(ValidationError, match="no outcome"):
            core_report.outcome("missing")

    def test_report_json_is_versioned_and_canonical(self, core_report):
        payload = core_report.to_json()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["suite"] == "core"
        assert len(payload["scenarios"]) == len(CORE_SUITE)
        # Canonicalization is idempotent and newline-terminated.
        text = canonical_json(payload)
        assert text.endswith("}\n")
        assert canonical_json(payload) == text

    def test_table_renders_every_scenario(self, core_report):
        table = core_report.table()
        for spec in CORE_SUITE:
            assert spec.name in table


class TestRunnerValidation:
    def test_confidence_range(self):
        with pytest.raises(ValidationError, match="confidence"):
            ScenarioRunner(confidence=1.5)

    def test_empty_specs(self):
        with pytest.raises(ValidationError, match="at least one"):
            ScenarioRunner().run(())

    def test_streaming_check_can_be_skipped(self):
        runner = ScenarioRunner(check_streaming=False)
        outcome = runner.run_spec(get_spec("spike-classic"))
        assert outcome.streaming_parity is True  # vacuous by contract


class TestGridEngineWiring:
    """Compiled scenarios are first-class datasets for the grid engines."""

    @pytest.fixture(scope="class")
    def scenario_datasets(self):
        names = ("spike-classic", "ingress-outage-dark")
        return [compile_scenario(get_spec(n)).dataset for n in names]

    def test_suite_datasets_compiles_the_whole_suite(self):
        datasets = suite_datasets("core")
        assert [d.name for d in datasets] == [s.name for s in CORE_SUITE]
        for dataset in datasets:
            assert dataset.true_events  # every scenario carries truth

    def test_batch_runner_accepts_scenario_datasets(self, scenario_datasets):
        report = BatchRunner(
            scenario_datasets, confidences=(0.995, 0.999)
        ).run()
        assert len(report) == 4
        baseline = report.baseline("spike-classic", 0.999)
        assert baseline.num_alarms >= 1

    def test_comparison_runner_accepts_scenario_datasets(
        self, scenario_datasets
    ):
        report = ComparisonRunner(
            scenario_datasets,
            detectors=("subspace", "ewma"),
            workers=1,
        ).run()
        assert set(report.datasets) == {
            "spike-classic",
            "ingress-outage-dark",
        }
        for cell in report:
            assert 0.0 <= cell.auc <= 1.0

    def test_serial_and_parallel_reports_are_identical(
        self, scenario_datasets
    ):
        kwargs = dict(
            datasets=scenario_datasets,
            detectors=("subspace", "ewma"),
            injection_sizes=(2.0e9,),
            num_injections=4,
        )
        serial = ComparisonRunner(workers=1, **kwargs).run()
        parallel = ComparisonRunner(workers=2, **kwargs).run()
        assert serial.to_json(include_timings=False) == parallel.to_json(
            include_timings=False
        )


class TestStreamingBatchParity:
    def test_parity_helper_on_clean_pipeline(self, compiled_core):
        compiled = compiled_core["spike-classic"]
        pipeline = DetectionPipeline(confidence=0.999).fit(
            compiled.dataset.link_traffic, routing=compiled.dataset.routing
        )
        assert streaming_matches_batch(
            pipeline, compiled.dataset.link_traffic
        )

    def test_parity_helper_detects_real_divergence(self, compiled_core):
        """Batch scores that disagree with streaming far outside the
        borderline band must not be excused: the helper behind the
        scenario suite's parity gate returns False."""
        compiled = compiled_core["spike-classic"]
        trace = compiled.dataset.link_traffic
        pipeline = DetectionPipeline(confidence=0.999).fit(
            trace, routing=compiled.dataset.routing
        )
        spe = np.asarray(pipeline.detector.spe(trace))
        assert streaming_matches_batch(pipeline, trace, spe=spe)
        assert not streaming_matches_batch(pipeline, trace, spe=3 * spe)
