"""Hand-rolled Prometheus instruments and the text exposition."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ServiceError
from repro.service import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.metrics import _format_value


def reference_format_value(value: float) -> str:
    """The sample spelling, special values tested first."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class TestSampleValues:
    @given(
        st.floats()
        | st.integers(-(2**60), 2**60).map(float)
        | st.sampled_from([1e15, -1e15, 1e15 - 1, -0.0])
    )
    def test_integer_first_spelling_matches_the_reference(self, value):
        assert _format_value(value) == reference_format_value(value)


class TestCounter:
    def test_unlabeled_counts(self):
        counter = Counter("rows_total", "Rows.")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0
        assert counter.total() == 3.0
        assert counter.render() == [
            "# HELP rows_total Rows.",
            "# TYPE rows_total counter",
            "rows_total 3",
        ]

    def test_labeled_children_render_in_first_use_order(self):
        counter = Counter("errors_total", "Errors.", label="reason")
        counter.inc(label_value="late")
        counter.inc(label_value="early")
        counter.inc(label_value="late")
        assert counter.value("late") == 2.0
        assert counter.value("missing") == 0.0
        assert counter.total() == 3.0
        assert counter.render()[2:] == [
            'errors_total{reason="late"} 2',
            'errors_total{reason="early"} 1',
        ]

    def test_misuse_rejected(self):
        plain = Counter("a_total", "x")
        labeled = Counter("b_total", "x", label="kind")
        with pytest.raises(ServiceError):
            plain.inc(-1.0)
        with pytest.raises(ServiceError):
            plain.inc(label_value="oops")
        with pytest.raises(ServiceError):
            labeled.inc()

    def test_label_values_are_escaped(self):
        counter = Counter("c_total", "x", label="detail")
        counter.inc(label_value='quo"te\nnl')
        sample = counter.render()[2]
        assert sample == 'c_total{detail="quo\\"te\\nnl"} 1'


class TestGauge:
    def test_set_and_render(self):
        gauge = Gauge("spe_last", "SPE.")
        gauge.set(2.5)
        assert gauge.value() == 2.5
        assert gauge.render()[-1] == "spe_last 2.5"
        gauge.set(-3)
        assert gauge.render()[-1] == "spe_last -3"

    def test_special_floats(self):
        gauge = Gauge("g", "x")
        gauge.set(math.inf)
        assert gauge.render()[-1] == "g +Inf"
        gauge.set(math.nan)
        assert gauge.render()[-1] == "g NaN"


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        histogram = Histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        lines = histogram.render()[2:]
        assert lines == [
            'lat_bucket{le="0.1"} 1',
            'lat_bucket{le="1"} 3',
            'lat_bucket{le="10"} 4',
            'lat_bucket{le="+Inf"} 5',
            "lat_sum 56.05",
            "lat_count 5",
        ]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)

    def test_boundary_lands_in_its_bucket(self):
        histogram = Histogram("h", "x", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le is inclusive
        assert histogram.render()[2] == 'h_bucket{le="1"} 1'

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ServiceError):
            Histogram("h", "x", buckets=())
        with pytest.raises(ServiceError):
            Histogram("h", "x", buckets=(1.0, 1.0))
        with pytest.raises(ServiceError):
            Histogram("h", "x", buckets=(2.0, 1.0))


class TestRegistry:
    def test_render_concatenates_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("one_total", "One.")
        registry.gauge("two", "Two.")
        text = registry.render()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines.index("# TYPE one_total counter") < lines.index(
            "# TYPE two gauge"
        )

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("g", "x")
        with pytest.raises(ServiceError, match="already registered"):
            registry.counter("g", "y")

    def test_lookup_by_name(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "x")
        assert registry["g"] is gauge

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ServiceError):
            Gauge("bad-name", "x")
        with pytest.raises(ServiceError):
            Gauge("", "x")
