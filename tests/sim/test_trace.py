"""Tests for the typed trace sink."""

import json

import pytest

from repro.obs.sinks import FilteredSink
from repro.sim.trace import NULL_TRACE, NullTrace, TraceLog, TraceRecord, matches


def test_emit_and_len():
    log = TraceLog()
    log.emit(1.0, "mac", 3, "hello")
    log.emit(2.0, "dsr", 4, "world")
    assert len(log) == 2


def test_emit_captures_typed_fields():
    log = TraceLog()
    log.emit(1.0, "atim", 2, "advertise", dst=7, level="RANDOMIZED", p=0.5)
    (rec,) = list(log)
    assert rec.event == "advertise"
    assert rec.get("dst") == 7
    assert rec.get("level") == "RANDOMIZED"
    assert rec.get("p") == 0.5
    assert rec.get("missing", "fallback") == "fallback"


def test_fields_preserve_kwarg_order():
    log = TraceLog()
    log.emit(0.0, "x", 0, "e", zebra=1, alpha=2)
    (rec,) = list(log)
    assert rec.fields == (("zebra", 1), ("alpha", 2))


def test_filter_by_category():
    log = TraceLog()
    log.emit(1.0, "mac", 1, "a")
    log.emit(2.0, "dsr", 1, "b")
    assert [r.event for r in log.filter(category="mac")] == ["a"]


def test_filter_by_node():
    log = TraceLog()
    log.emit(1.0, "mac", 1, "a")
    log.emit(2.0, "mac", 2, "b")
    assert [r.event for r in log.filter(node=2)] == ["b"]


def test_filter_by_time_window():
    log = TraceLog()
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        log.emit(t, "mac", 1, f"t{t}")
    # inclusive on both ends
    assert [r.time for r in log.filter(t_min=1.0, t_max=2.0)] == [1.0, 1.5, 2.0]
    assert [r.time for r in log.filter(t_min=2.5)] == [2.5]
    assert [r.time for r in log.filter(t_max=0.5)] == [0.5]


def test_filter_combines_predicates():
    log = TraceLog()
    log.emit(1.0, "mac", 1, "a")
    log.emit(1.0, "dsr", 1, "b")
    log.emit(3.0, "mac", 1, "c")
    log.emit(1.5, "mac", 2, "d")
    out = log.filter(category="mac", node=1, t_max=2.0)
    assert [r.event for r in out] == ["a"]


def test_matches_predicate():
    rec = TraceRecord(1.0, "mac", 1, "a")
    assert matches(rec)
    assert matches(rec, category="mac", node=1, t_min=1.0, t_max=1.0)
    assert not matches(rec, category="dsr")
    assert not matches(rec, node=2)
    assert not matches(rec, t_min=1.1)
    assert not matches(rec, t_max=0.9)


def test_category_whitelist():
    log = TraceLog()
    sink = FilteredSink(log, categories=["mac"])
    sink.emit(1.0, "mac", 1, "kept")
    sink.emit(1.0, "dsr", 1, "dropped")
    assert [r.event for r in log] == ["kept"]


def test_dump_renders_lines():
    log = TraceLog()
    log.emit(1.5, "chan", 7, "tx", frame="DATA")
    out = log.dump()
    assert "chan" in out
    assert "n7" in out
    assert "frame=DATA" in out


def test_record_str_format():
    rec = TraceRecord(0.25, "mac", 12, "queued", fields=(("depth", 3),))
    text = str(rec)
    assert "0.250000" in text
    assert "queued" in text
    assert "depth=3" in text


def test_record_detail():
    rec = TraceRecord(0.0, "mac", 0, "tx", fields=(("a", 1), ("b", "x")))
    assert rec.detail == "tx a=1 b=x"
    assert TraceRecord(0.0, "mac", 0, "tx").detail == "tx"


def test_record_to_json_is_compact_and_ordered():
    rec = TraceRecord(0.05, "psm", 0, "sleep", fields=(("until", 0.25),))
    line = rec.to_json()
    assert line == (
        '{"time":0.05,"category":"psm","node":0,'
        '"event":"sleep","fields":{"until":0.25}}'
    )
    assert json.loads(line)["fields"]["until"] == 0.25


def test_record_to_dict():
    rec = TraceRecord(1.0, "dsr", 3, "rreq", fields=(("ttl", 255),))
    assert rec.to_dict() == {
        "time": 1.0, "category": "dsr", "node": 3,
        "event": "rreq", "fields": {"ttl": 255},
    }


def test_null_trace_is_inert():
    assert not NullTrace().enabled
    assert NULL_TRACE.emit(1.0, "x", 0, "ignored", extra=1) is None


def test_trace_log_enabled_flag():
    assert TraceLog().enabled
