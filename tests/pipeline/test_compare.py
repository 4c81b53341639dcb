"""Tests for the multi-detector comparison engine."""

import threading

import numpy as np
import pytest

from repro.exceptions import SupervisionError, ValidationError
from repro.pipeline import ComparisonRunner
from repro.pipeline.compare import ComparisonScenario, scenario_trace

FAST_GRID = dict(
    detectors=("subspace", "fourier"),
    injection_sizes=(3.0e7,),
    num_injections=8,
    workers=1,
)


class TestScenarioTrace:
    def test_baseline_is_the_unmodified_trace(self, small_dataset):
        scenario = ComparisonScenario(label="baseline", injection_size=None)
        trace, truth = scenario_trace(small_dataset, scenario)
        assert trace is small_dataset.link_traffic
        assert truth.size == len(
            {e.time_bin for e in small_dataset.true_events}
        )

    def test_injection_is_deterministic(self, small_dataset):
        scenario = ComparisonScenario(
            label="inject", injection_size=2.0e7, num_injections=6, seed=3
        )
        trace_a, truth_a = scenario_trace(small_dataset, scenario)
        trace_b, truth_b = scenario_trace(small_dataset, scenario)
        assert np.array_equal(trace_a, trace_b)
        assert np.array_equal(truth_a, truth_b)

    def test_different_seeds_differ(self, small_dataset):
        first = ComparisonScenario(
            label="a", injection_size=2.0e7, num_injections=6, seed=3
        )
        second = ComparisonScenario(
            label="b", injection_size=2.0e7, num_injections=6, seed=4
        )
        assert not np.array_equal(
            scenario_trace(small_dataset, first)[0],
            scenario_trace(small_dataset, second)[0],
        )

    def test_injection_adds_routed_bytes(self, small_dataset):
        scenario = ComparisonScenario(
            label="inject", injection_size=2.0e7, num_injections=6, seed=0
        )
        trace, truth = scenario_trace(small_dataset, scenario)
        delta = trace - small_dataset.link_traffic
        changed = np.nonzero(np.any(delta != 0.0, axis=1))[0]
        assert changed.size == 6
        assert set(changed) <= set(truth.tolist())
        # Each spike adds size * A_i bytes; the column sums of A are >= 1.
        assert np.all(delta[changed].sum(axis=1) >= 2.0e7 * (1 - 1e-9))

    def test_truth_is_union_of_ledger_and_injections(self, small_dataset):
        scenario = ComparisonScenario(
            label="inject", injection_size=2.0e7, num_injections=6, seed=0
        )
        _, truth = scenario_trace(small_dataset, scenario)
        ledger = {e.time_bin for e in small_dataset.true_events}
        assert ledger <= set(truth.tolist())
        assert truth.size == len(ledger) + 6

    def test_baseline_without_events_raises(self, small_dataset):
        scenario = ComparisonScenario(label="baseline", injection_size=None)
        with pytest.raises(ValidationError, match="baseline"):
            scenario_trace(small_dataset, scenario, min_event_bytes=1e18)

    def test_multi_bin_events_mark_their_whole_span(self):
        from types import SimpleNamespace

        from repro.pipeline.compare import _ledger_bins
        from repro.traffic.anomalies import AnomalyEvent, AnomalyShape

        dataset = SimpleNamespace(
            true_events=(
                AnomalyEvent(
                    time_bin=10,
                    flow_index=0,
                    amplitude_bytes=5e7,
                    shape=AnomalyShape.SQUARE,
                    duration_bins=4,
                ),
                AnomalyEvent(
                    time_bin=30, flow_index=1, amplitude_bytes=5e7
                ),
            )
        )
        assert _ledger_bins(dataset, 0.0).tolist() == [10, 11, 12, 13, 30]


class TestComparisonRunner:
    @pytest.fixture(scope="class")
    def report(self, small_dataset):
        return ComparisonRunner([small_dataset], **FAST_GRID).run()

    def test_grid_shape(self, report, small_dataset):
        # 2 detectors x (baseline + 1 injection) = 4 cells.
        assert len(report) == 4
        assert report.detectors == ("subspace", "fourier")
        assert report.datasets == (small_dataset.name,)
        assert report.scenarios == ("baseline", "inject-3.00e+07")

    def test_cell_lookup(self, report, small_dataset):
        cell = report.cell("subspace", small_dataset.name, "baseline")
        assert cell.is_baseline
        assert 0.0 <= cell.auc <= 1.0
        assert 0.0 <= cell.op_detection <= 1.0
        assert 0.0 <= cell.op_false_alarm <= 1.0
        with pytest.raises(ValidationError):
            report.cell("subspace", small_dataset.name, "nope")

    def test_budgets_are_recorded(self, report):
        for cell in report:
            budgets = dict(cell.detection_at_budgets)
            assert set(budgets) == {0.001, 0.01}
            assert all(0.0 <= rate <= 1.0 for rate in budgets.values())

    def test_ranking_and_mean_auc(self, report):
        ranking = report.ranking()
        assert set(ranking) == {"subspace", "fourier"}
        aucs = [report.mean_auc(d) for d in ranking]
        assert aucs == sorted(aucs, reverse=True)
        with pytest.raises(ValidationError):
            report.mean_auc("ewma")

    def test_table_renders_every_cell(self, report, small_dataset):
        table = report.table()
        assert "subspace" in table and "fourier" in table
        assert f"{small_dataset.name}/baseline" in table
        operating = report.operating_table()
        assert operating.count("\n") >= len(report)

    def test_to_json_round_trips(self, report):
        import json

        payload = json.loads(json.dumps(report.to_json()))
        assert payload["grid"]["num_cells"] == len(report)
        assert set(payload["mean_auc"]) == {"subspace", "fourier"}
        assert len(payload["cells"]) == len(report)
        assert payload["ranking"][0] in {"subspace", "fourier"}

    def test_parallel_matches_serial(self, small_dataset, report):
        parallel = ComparisonRunner(
            [small_dataset], **{**FAST_GRID, "workers": 2}
        ).run()
        assert parallel.cells == report.cells

    def test_detector_kwargs_override(self, small_dataset):
        report = ComparisonRunner(
            [small_dataset],
            detectors=("ewma",),
            injection_sizes=(3.0e7,),
            num_injections=4,
            workers=1,
            detector_kwargs={"ewma": {"alpha": 0.5}},
        ).run()
        assert len(report) == 2

    def test_validation(self, small_dataset):
        with pytest.raises(ValidationError):
            ComparisonRunner([])
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset, small_dataset])
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], injection_sizes=(0.0,))
        with pytest.raises(ValidationError, match="distinct"):
            ComparisonRunner([small_dataset], injection_sizes=(3e7, 3e7))
        # Distinct sizes that format to the same scenario label are
        # rejected loudly rather than silently collapsing rows.
        with pytest.raises(ValidationError, match="collide"):
            ComparisonRunner(
                [small_dataset], injection_sizes=(3.000e7, 3.001e7)
            ).scenarios_for(small_dataset)
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], num_injections=0)
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], workers=0)
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], confidence=1.2)
        with pytest.raises(ValidationError):
            ComparisonRunner(
                [small_dataset], detector_kwargs={"wavelet": {}}
            )

    def test_no_events_and_no_injections_rejected(self, small_dataset):
        runner = ComparisonRunner(
            [small_dataset], min_event_bytes=1e18, workers=1
        )
        with pytest.raises(ValidationError, match="nothing to evaluate"):
            runner.run()

    def test_injections_only_grid(self, small_dataset):
        report = ComparisonRunner(
            [small_dataset],
            detectors=("fourier",),
            injection_sizes=(3.0e7,),
            num_injections=4,
            min_event_bytes=1e18,
            workers=1,
        ).run()
        # The baseline scenario is dropped; the injected bins alone form
        # the truth set.
        assert report.scenarios == ("inject-3.00e+07",)
        assert report.cells[0].num_truth_bins == 4


class TestFitOnceEngine:
    """PR-3 acceptance: each (detector, dataset) pair fits exactly once,
    and serial vs parallel (shared-memory) reports are byte-identical."""

    def test_num_fits_is_one_per_pair(self, small_dataset):
        report = ComparisonRunner(
            [small_dataset],
            detectors=("subspace", "ewma", "fourier"),
            injection_sizes=(3.0e7, 1.5e7),
            num_injections=6,
            confidences=(0.999, 0.995),
            workers=1,
        ).run()
        # 3 detectors x 1 dataset -> 3 fits, even though the grid has
        # 3 detectors x 3 scenarios x 2 confidences = 18 cells.
        assert report.num_fits == 3
        assert len(report) == 18

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fit_called_exactly_once_per_pair(
        self, small_dataset, tmp_path, workers
    ):
        """A counting detector proves the exactly-once discipline in
        process (workers=1) and across worker processes (workers=2 with
        two (detector, dataset) pairs, so the shared-memory fit/score
        split actually runs)."""
        from repro import detectors

        counter = tmp_path / f"fits-{workers}.log"
        detectors.register(
            "counting-fourier", _counting_factory, overwrite=True
        )
        report = ComparisonRunner(
            [small_dataset],
            detectors=("counting-fourier", "ewma"),
            injection_sizes=(3.0e7, 1.5e7),
            num_injections=4,
            confidences=(0.999, 0.995),
            workers=workers,
            detector_kwargs={
                "counting-fourier": {"counter_path": str(counter)}
            },
        ).run()
        # 2 detectors x 3 scenarios x 2 confidences = 12 cells; one fit
        # per (detector, dataset) pair, of which the counter sees its
        # own exactly once.
        assert len(report) == 12
        assert report.num_fits == 2
        assert counter.read_text().count("fit\n") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mutating_detector_fails_loudly(self, small_dataset, workers):
        """Traffic views are read-only under every worker layout: a
        detector that mutates its input raises identically instead of
        silently corrupting later cells (serial) or the shared segment
        (parallel)."""
        from repro import detectors

        detectors.register(
            "mutating-fourier", _mutating_factory, overwrite=True
        )
        runner = ComparisonRunner(
            [small_dataset],
            detectors=("mutating-fourier", "ewma"),
            injection_sizes=(3.0e7,),
            num_injections=4,
            workers=workers,
        )
        with pytest.raises(ValueError, match="read-only"):
            runner.run()

    def test_dead_worker_raises_and_releases_memory(
        self, small_dataset, monkeypatch
    ):
        """A worker that dies mid-fit raises a typed error within the
        timeout, instead of leaving the run waiting on its task, and
        every shared-memory block the run created is unlinked."""
        from multiprocessing import shared_memory

        from repro import detectors
        from repro.pipeline import compare

        created = []
        share_array = compare.share_array

        def recording(array, segments):
            ref = share_array(array, segments)
            created.append(ref.name)
            return ref

        monkeypatch.setattr(compare, "share_array", recording)
        detectors.register(
            "crashing-fourier", _crashing_factory, overwrite=True
        )
        runner = ComparisonRunner(
            [small_dataset],
            detectors=("crashing-fourier", "ewma"),
            injection_sizes=(3.0e7,),
            num_injections=4,
            workers=2,
        )
        outcome = {}

        def run():
            try:
                runner.run()
            except Exception as err:  # noqa: BLE001 - asserted below
                outcome["error"] = err

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run() hung on a dead worker"
        assert isinstance(outcome.get("error"), SupervisionError)
        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_serial_and_parallel_json_byte_identical(self, small_dataset):
        import json

        kwargs = dict(
            detectors=("subspace", "ewma", "fourier"),
            injection_sizes=(3.0e7, 1.5e7),
            num_injections=6,
            confidences=(0.999, 0.995),
        )
        serial = ComparisonRunner(
            [small_dataset], workers=1, **kwargs
        ).run()
        parallel = ComparisonRunner(
            [small_dataset], workers=4, **kwargs
        ).run()
        assert serial.cells == parallel.cells
        a = json.dumps(serial.to_json(include_timings=False), sort_keys=True)
        b = json.dumps(
            parallel.to_json(include_timings=False), sort_keys=True
        )
        assert a.encode() == b.encode()

    def test_timings_are_reported_but_excluded_on_request(
        self, small_dataset
    ):
        report = ComparisonRunner(
            [small_dataset], **FAST_GRID
        ).run()
        full = report.to_json()
        assert "elapsed_seconds" in full and "cell_seconds" in full
        bare = report.to_json(include_timings=False)
        assert "elapsed_seconds" not in bare and "cell_seconds" not in bare
        assert bare["num_fits"] == report.num_fits


class TestConfidenceLevels:
    """Multiple confidence levels share one fitted model and one score
    pass per scenario."""

    @pytest.fixture(scope="class")
    def report(self, small_dataset):
        return ComparisonRunner(
            [small_dataset],
            detectors=("subspace", "fourier"),
            injection_sizes=(3.0e7,),
            num_injections=8,
            confidences=(0.995, 0.999),
            workers=1,
        ).run()

    def test_grid_multiplies_by_confidences(self, report):
        # 2 detectors x 2 scenarios x 2 confidences.
        assert len(report) == 8
        assert report.confidences == (0.995, 0.999)
        assert report.confidence == 0.995

    def test_auc_is_confidence_independent(self, report, small_dataset):
        for detector in report.detectors:
            for scenario in report.scenarios:
                low = report.cell(
                    detector, small_dataset.name, scenario, confidence=0.995
                )
                high = report.cell(
                    detector, small_dataset.name, scenario, confidence=0.999
                )
                assert low.auc == high.auc
                assert low.op_threshold <= high.op_threshold

    def test_ambiguous_cell_lookup_requires_confidence(
        self, report, small_dataset
    ):
        with pytest.raises(ValidationError, match="confidence"):
            report.cell("subspace", small_dataset.name, "baseline")
        cell = report.cell(
            "subspace", small_dataset.name, "baseline", confidence=0.999
        )
        assert cell.confidence == 0.999

    def test_validation(self, small_dataset):
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], confidences=())
        with pytest.raises(ValidationError, match="distinct"):
            ComparisonRunner([small_dataset], confidences=(0.99, 0.99))
        with pytest.raises(ValidationError):
            ComparisonRunner([small_dataset], confidences=(0.99, 1.5))


def _counting_factory(**kwargs):
    # Module-level so it pickles under any multiprocessing start method.
    return _CountingFourier(**kwargs)


def _crashing_factory(**kwargs):
    # Module-level so it pickles under any multiprocessing start method.
    return _Crashing()


class _Crashing:
    """A detector whose fit kills the worker process that runs it."""

    name = "crashing-fourier"

    def fit(self, measurements):
        import os

        os._exit(3)


def _mutating_factory(**kwargs):
    from repro.detectors.temporal import fourier_detector

    detector = fourier_detector(
        confidence=kwargs.get("confidence", 0.999),
        bin_seconds=kwargs.get("bin_seconds", 600.0),
    )

    class _Mutating:
        name = "mutating-fourier"

        def fit(self, measurements):
            # In-place normalization: the anti-pattern the read-only
            # shared views are there to catch.
            measurements -= measurements.mean(axis=0)
            detector.fit(measurements)
            return self

        def score(self, measurements):
            return detector.score(measurements)

        def threshold_at(self, confidence):
            return detector.threshold_at(confidence)

        def detect(self, measurements, confidence=None):
            return detector.detect(measurements, confidence=confidence)

    return _Mutating()


class _CountingFourier:
    """A fourier detector that appends a line to a file on every fit.

    The file lives on disk so fits are counted across worker processes;
    O_APPEND keeps concurrent writes intact.
    """

    def __init__(self, counter_path, confidence=0.999, bin_seconds=600.0):
        from repro.detectors.temporal import fourier_detector

        self.name = "counting-fourier"
        self._counter_path = counter_path
        self._inner = fourier_detector(
            confidence=confidence, bin_seconds=bin_seconds
        )

    def fit(self, measurements):
        with open(self._counter_path, "a") as handle:
            handle.write("fit\n")
        self._inner.fit(measurements)
        return self

    def score(self, measurements):
        return self._inner.score(measurements)

    def threshold_at(self, confidence):
        return self._inner.threshold_at(confidence)

    def detect(self, measurements, confidence=None):
        return self._inner.detect(measurements, confidence=confidence)


class TestRuntimeRegisteredDetector:
    def test_factory_travels_to_workers(self, small_dataset):
        """A detector registered at runtime works across worker
        processes: the factory is shipped with each cell task instead of
        being re-resolved from the (possibly re-imported) registry."""
        from repro import detectors

        detectors.register(
            "test-compare-fourier", _fourier_factory, overwrite=True
        )
        report = ComparisonRunner(
            [small_dataset],
            detectors=("test-compare-fourier",),
            injection_sizes=(3.0e7,),
            num_injections=4,
            workers=2,
        ).run()
        assert report.detectors == ("test-compare-fourier",)
        assert len(report) == 2


def _fourier_factory(**kwargs):
    # Module-level so it pickles under any multiprocessing start method.
    from repro.detectors.temporal import fourier_detector

    detector = fourier_detector(
        confidence=kwargs.get("confidence", 0.999),
        bin_seconds=kwargs.get("bin_seconds", 600.0),
    )
    detector.name = "test-compare-fourier"
    return detector


class TestPaperOrdering:
    def test_subspace_beats_temporal_baselines(self, sprint1):
        """The §6.2 / Fig. 10 claim, quantified over the injection grid."""
        report = ComparisonRunner(
            [sprint1],
            detectors=("subspace", "ewma", "fourier"),
            injection_sizes=(3.0e7, 1.5e7),
            num_injections=24,
            workers=1,
        ).run()
        assert report.ranking()[0] == "subspace"
        for scenario in report.scenarios:
            subspace = report.auc("subspace", sprint1.name, scenario)
            for baseline in ("ewma", "fourier"):
                assert subspace > report.auc(baseline, sprint1.name, scenario)
