"""Integration tests for the trace plumbing."""

from repro.network import build_network
from repro.obs.sinks import FilteredSink
from repro.sim.trace import TraceLog

from tests.conftest import line_config


def test_channel_and_dsr_events_traced():
    trace = TraceLog()
    config = line_config("ieee80211", n=3, sim_time=10.0)
    network = build_network(config, trace=trace)
    network.nodes[0].dsr.send_data(2, 256)
    network.run()
    categories = {rec.category for rec in trace}
    assert "chan" in categories
    assert "dsr" in categories
    assert "energy" in categories
    assert len(trace) > 0


def test_trace_category_filter_in_network():
    trace = TraceLog()
    config = line_config("ieee80211", n=3, sim_time=10.0)
    network = build_network(config,
                            trace=FilteredSink(trace, categories=["dsr"]))
    network.nodes[0].dsr.send_data(2, 256)
    network.run()
    assert all(rec.category == "dsr" for rec in trace)
    assert len(trace) > 0


def test_trace_records_carry_node_and_time():
    trace = TraceLog()
    config = line_config("rcast", n=2, sim_time=5.0)
    network = build_network(config, trace=trace)
    network.nodes[0].dsr.send_data(1, 128)
    network.run()
    for rec in trace:
        assert 0.0 <= rec.time <= 5.0
        assert rec.node in (0, 1)
    dump = trace.dump()
    assert dump.count("\n") + 1 == len(trace)


def test_psm_trace_covers_wake_sleep_and_atim():
    trace = TraceLog()
    config = line_config("rcast", n=3, sim_time=10.0)
    network = build_network(config, trace=trace)
    network.nodes[0].dsr.send_data(2, 256)
    network.run()
    psm_events = {r.event for r in trace.filter(category="psm")}
    assert "sleep" in psm_events
    assert "awake" in psm_events
    atim_events = {r.event for r in trace.filter(category="atim")}
    assert "advertise" in atim_events
    # every advertise carries its typed fields
    for rec in trace.filter(category="atim"):
        if rec.event == "advertise":
            assert rec.get("dst") is not None
            assert rec.get("frames") is not None


def test_dsr_trace_events_typed():
    trace = TraceLog()
    config = line_config("ieee80211", n=4, sim_time=15.0)
    network = build_network(config,
                            trace=FilteredSink(trace, categories=["dsr"]))
    network.nodes[0].dsr.send_data(3, 256)
    network.run()
    events = {r.event for r in trace}
    assert "rreq" in events
    assert "tx" in events
    for rec in trace:
        if rec.event == "rreq":
            assert rec.get("target") == 3
            assert rec.get("ttl") is not None


def test_energy_trace_state_transitions():
    trace = TraceLog()
    config = line_config("psm", n=2, sim_time=5.0)
    network = build_network(config,
                            trace=FilteredSink(trace, categories=["energy"]))
    network.run()
    for rec in trace:
        assert rec.event == "state"
        assert rec.get("prev") != rec.get("state")
        assert rec.get("energy") is not None
