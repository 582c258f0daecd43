"""Tests for the pluggable trace sinks."""

import json

import pytest

from repro.obs.sinks import FilteredSink, JsonlSink, read_jsonl
from repro.sim.trace import TraceLog


class TestJsonlSink:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            assert sink.enabled
            sink.emit(0.05, "psm", 0, "sleep", until=0.25)
            sink.emit(0.25, "psm", 0, "awake", reasons="beacon")
            assert sink.written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"time": 0.05, "category": "psm", "node": 0,
                         "event": "sleep", "fields": {"until": 0.25}}

    def test_close_idempotent_and_disables(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()
        assert not sink.enabled
        sink.emit(1.0, "mac", 0, "dropped")  # no-op after close
        assert sink.written == 0

    def test_read_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(1.5, "atim", 3, "advertise", dst=7, level="LOW")
        (rec,) = read_jsonl(path)
        assert rec.time == 1.5
        assert rec.category == "atim"
        assert rec.node == 3
        assert rec.event == "advertise"
        assert rec.get("dst") == 7
        assert rec.get("level") == "LOW"

    def test_gzip_round_trip(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        with JsonlSink(path) as sink:
            sink.emit(1.0, "mac", 0, "a", depth=2)
            sink.emit(2.0, "dsr", 1, "b")
        with gzip.open(path, "rt") as handle:
            assert len(handle.read().splitlines()) == 2
        records = read_jsonl(path)
        assert [r.event for r in records] == ["a", "b"]
        assert records[0].get("depth") == 2

    def test_rotation_by_uncompressed_bytes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, rotate_bytes=200)
        for i in range(20):
            sink.emit(float(i), "mac", 0, f"event-{i:04d}")
        sink.close()
        rotated = sorted(tmp_path.glob("trace.*.jsonl"))
        assert rotated, "expected at least one rotation"
        assert rotated[0].name == "trace.00001.jsonl"
        # All parts plus the active file read back to the full stream.
        events = []
        for part in rotated + [path]:
            events.extend(r.event for r in read_jsonl(part))
        assert events == [f"event-{i:04d}" for i in range(20)]
        assert sink.written == 20

    def test_rotation_preserves_gz_suffix(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        sink = JsonlSink(path, rotate_bytes=150)
        for i in range(12):
            sink.emit(float(i), "mac", 0, f"event-{i:04d}")
        sink.close()
        rotated = sorted(tmp_path.glob("trace.*.jsonl.gz"))
        assert rotated
        assert rotated[0].name == "trace.00001.jsonl.gz"
        events = []
        for part in rotated + [path]:
            events.extend(r.event for r in read_jsonl(part))
        assert events == [f"event-{i:04d}" for i in range(12)]

    def test_rotation_points_deterministic(self, tmp_path):
        """Same record stream rotates at identical records."""
        counts = []
        for run in range(2):
            sink = JsonlSink(tmp_path / f"t{run}.jsonl", rotate_bytes=300)
            for i in range(30):
                sink.emit(float(i), "mac", i % 5, f"event-{i:04d}")
            sink.close()
            counts.append([len(read_jsonl(p)) for p in
                           sorted(tmp_path.glob(f"t{run}.*.jsonl"))])
        assert counts[0] == counts[1]

    def test_rejects_nonpositive_rotate_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", rotate_bytes=0)


class TestFilteredSink:
    def test_category_filter(self):
        log = TraceLog()
        sink = FilteredSink(log, categories=["atim"])
        assert sink.enabled
        sink.emit(1.0, "atim", 0, "kept")
        sink.emit(1.0, "psm", 0, "dropped")
        assert [r.event for r in log] == ["kept"]

    def test_enabled_delegates_to_inner(self, tmp_path):
        inner = JsonlSink(tmp_path / "t.jsonl")
        sink = FilteredSink(inner, categories=["dsr"])
        assert sink.enabled
        inner.close()
        assert not sink.enabled
