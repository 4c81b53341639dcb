"""The JSONL event log: schema envelope, tail, file round-trip."""

import json

import pytest

from repro.exceptions import ServiceError
from repro.service import EVENT_KINDS, EVENT_SCHEMA_VERSION, EventLog


class TestEmit:
    def test_envelope_fields_and_clock(self, fake_clock):
        log = EventLog(clock=fake_clock)
        record = log.emit("alarm", bin=7, spe=2.5)
        assert record["schema_version"] == EVENT_SCHEMA_VERSION
        assert record["kind"] == "alarm"
        assert record["time"] == 1000.0
        assert record["bin"] == 7 and record["spe"] == 2.5
        assert log.emit("alarm", bin=8)["time"] == 1001.0
        assert log.emitted == 2

    def test_unknown_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ServiceError, match="unknown event kind"):
            log.emit("not_a_kind")
        assert log.emitted == 0

    def test_reserved_fields_rejected(self):
        log = EventLog()
        for reserved in ("schema_version", "kind", "time"):
            with pytest.raises(ServiceError, match="reserved"):
                log.emit("alarm", **{reserved: 1})

    def test_every_declared_kind_is_emittable(self):
        log = EventLog()
        for kind in EVENT_KINDS:
            log.emit(kind)
        assert [e["kind"] for e in log.tail()] == list(EVENT_KINDS)


class TestTail:
    def test_tail_is_bounded_and_ordered(self):
        log = EventLog(tail_size=3)
        for index in range(5):
            log.emit("alarm", bin=index)
        assert [e["bin"] for e in log.tail()] == [2, 3, 4]
        assert [e["bin"] for e in log.tail(2)] == [3, 4]
        assert log.emitted == 5

    def test_invalid_tail_size(self):
        with pytest.raises(ServiceError):
            EventLog(tail_size=0)


class TestFileSink:
    def test_round_trip_through_jsonl(self, tmp_path, fake_clock):
        path = tmp_path / "events" / "log.jsonl"
        with EventLog(path, clock=fake_clock) as log:
            log.emit("service_start", num_links=4)
            log.emit("alarm", bin=0, spe=1.0)
        records = list(EventLog.read_jsonl(path))
        assert [r["kind"] for r in records] == ["service_start", "alarm"]
        assert records == log.tail()

    def test_lines_are_canonical_json(self, tmp_path, fake_clock):
        path = tmp_path / "log.jsonl"
        log = EventLog(path, clock=fake_clock)
        log.emit("alarm", zebra=1, apple=2)
        log.close()
        line = path.read_text().strip()
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = EventLog(path)
        first.emit("service_start")
        first.close()
        log = EventLog(path)
        log.emit("service_stop")
        log.close()
        kinds = [r["kind"] for r in EventLog.read_jsonl(path)]
        assert kinds == ["service_start", "service_stop"]

    def test_memory_only_log_has_no_path(self):
        log = EventLog()
        assert log.path is None
        log.emit("alarm")
        log.close()  # closing a memory log is a no-op
        assert log.tail()[0]["kind"] == "alarm"


class TestFailSoftWrites:
    """A sick disk costs log lines, never the scoring path."""

    def test_oserror_is_counted_and_swallowed(self, tmp_path, fake_clock):
        log = EventLog(tmp_path / "events.jsonl", clock=fake_clock)
        log.emit("alarm", bin=1)
        assert log.write_errors == 0

        # Simulate the disk dying under the open handle.
        class DeadHandle:
            def write(self, _):
                raise OSError(28, "No space left on device")

            def flush(self):
                raise OSError(28, "No space left on device")

            def close(self):
                pass

        real_handle, log._handle = log._handle, DeadHandle()
        try:
            record = log.emit("alarm", bin=2)  # must not raise
            assert record["bin"] == 2
            assert log.write_errors == 1
            log.emit("alarm", bin=3)
            assert log.write_errors == 2
            # The memory tail kept every event despite the failed writes.
            assert [e["bin"] for e in log.tail()] == [1, 2, 3]
            # Counters: every emit counted, only the first line persisted.
            assert log.emitted == 3
            lines = (tmp_path / "events.jsonl").read_text().splitlines()
            assert len(lines) == 1
        finally:
            real_handle.close()

    def test_memory_only_log_never_counts_write_errors(self):
        log = EventLog()
        for _ in range(5):
            log.emit("alarm", bin=0)
        assert log.write_errors == 0
