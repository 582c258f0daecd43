"""Tests for the post-hoc flight-recorder span assembler."""

import json

import pytest

from repro.constants import POWER_AWAKE_W
from repro.network import SimulationConfig, build_network
from repro.obs.sinks import JsonlSink
from repro.obs.spans import (
    SORT_KEYS,
    assemble_flights,
    flights_to_json,
    format_flights,
    load_flights,
)
from repro.sim.trace import TraceLog, TraceRecord


def _traced_run(scheme="rcast", num_nodes=20, sim_time=30.0, seed=9):
    trace = TraceLog()
    config = SimulationConfig(scheme=scheme, num_nodes=num_nodes,
                              sim_time=sim_time, seed=seed)
    network = build_network(config, trace)
    metrics = network.run()
    return trace, metrics


def _rec(time, category, node, event, **fields):
    return TraceRecord(time, category, node, event, tuple(fields.items()))


class TestAssembleFromRealRun:
    def test_reconstructs_delivered_flights(self):
        trace, metrics = _traced_run()
        flights = assemble_flights(list(trace))
        delivered = [f for f in flights if f.status == "delivered"]
        # The acceptance gate: >= 99% of delivered packets reconstructed.
        assert len(delivered) >= 0.99 * metrics.data_delivered
        # And no over-counting beyond duplicates the collector ignores.
        assert len(delivered) <= metrics.data_sent
        for flight in delivered:
            assert flight.hops, flight.uid
            assert flight.total_latency is not None
            assert flight.total_latency >= 0.0
            assert flight.hops[-1].outcome == "ok"
            assert flight.energy > 0.0
            assert flight.total_attempts >= len(flight.hops)

    def test_flights_are_uid_ordered_and_unique(self):
        trace, _metrics = _traced_run()
        flights = assemble_flights(list(trace))
        uids = [f.uid for f in flights]
        assert uids == sorted(uids)
        assert len(uids) == len(set(uids))

    def test_latency_tracks_collector_average(self):
        """Span latency approximates the collector's measured delay."""
        trace, metrics = _traced_run()
        flights = [f for f in assemble_flights(list(trace))
                   if f.status == "delivered"]
        avg = sum(f.total_latency for f in flights) / len(flights)
        # Post-hoc origination is heuristic (discovery attribution), so
        # allow generous slack — but the scale must agree.
        assert avg < max(10 * metrics.avg_delay, 2.0)


class TestAssembleSynthetic:
    def test_single_hop_delivery(self):
        records = [
            _rec(1.0, "dsr", 0, "tx", kind="data", uid=7, next_hop=1),
            _rec(1.2, "dcf", 0, "tx_ok", frame="data/data 0->1 #5",
                 attempts=2),
            _rec(1.1, "chan", 0, "tx", frame="data/data 0->1 #5",
                 duration=0.004),
        ]
        (flight,) = assemble_flights(records)
        assert flight.uid == 7
        assert flight.status == "delivered"
        assert flight.src == 0 and flight.dst == 1
        assert flight.delivered_at == 1.2
        (hop,) = flight.hops
        assert hop.attempts == 2
        assert hop.air_time == pytest.approx(0.004)
        assert hop.tx_energy == pytest.approx(0.004 * POWER_AWAKE_W)
        assert hop.rx_energy == pytest.approx(0.004 * POWER_AWAKE_W)

    def test_forwarded_at_destination_means_not_delivered(self):
        """A tx_ok into a node that forwards the uid is not delivery."""
        records = [
            _rec(1.0, "dsr", 0, "tx", kind="data", uid=7, next_hop=1),
            _rec(1.2, "dcf", 0, "tx_ok", frame="data/data 0->1 #5",
                 attempts=1),
            _rec(1.3, "dsr", 1, "tx", kind="data", uid=7, next_hop=2),
            # hop 1 -> 2 never resolves: packet died at node 1's MAC
        ]
        (flight,) = assemble_flights(records)
        assert flight.status == "dropped"
        assert flight.dst == 2
        assert flight.hops[-1].outcome == "lost"

    def test_fifo_matching_is_global_across_uids(self):
        """DCF resolutions are claimed in enqueue order, not uid order."""
        records = [
            # uid 9 enqueued first at (0 -> 1), uid 3 second.
            _rec(1.0, "dsr", 0, "tx", kind="data", uid=9, next_hop=1),
            _rec(2.0, "dsr", 0, "tx", kind="data", uid=3, next_hop=1),
            _rec(1.5, "dcf", 0, "tx_ok", frame="data/data 0->1 #1",
                 attempts=1),
            _rec(2.5, "dcf", 0, "tx_fail", frame="data/data 0->1 #2",
                 attempts=7),
        ]
        flights = {f.uid: f for f in assemble_flights(records)}
        assert flights[9].hops[0].outcome == "ok"
        assert flights[9].hops[0].resolved_at == 1.5
        assert flights[3].hops[0].outcome == "fail"
        assert flights[3].hops[0].attempts == 7

    def test_discovery_attribution_within_window(self):
        records = [
            _rec(0.5, "dsr", 0, "rreq", target=1, attempt=1),
            _rec(1.1, "dsr", 0, "tx", kind="data", uid=7, next_hop=1),
            _rec(1.3, "dcf", 0, "tx_ok", frame="data/data 0->1 #5",
                 attempts=1),
        ]
        (flight,) = assemble_flights(records)
        assert flight.discovery_at == 0.5
        assert flight.originated_at == 0.5
        assert flight.discovery_latency == pytest.approx(0.6)

    def test_stale_rreq_not_attributed(self):
        """An RREQ far before the enqueue belonged to another packet."""
        records = [
            _rec(0.5, "dsr", 0, "rreq", target=1, attempt=1),
            _rec(90.0, "dsr", 0, "tx", kind="data", uid=7, next_hop=1),
            _rec(90.2, "dcf", 0, "tx_ok", frame="data/data 0->1 #5",
                 attempts=1),
        ]
        (flight,) = assemble_flights(records)
        assert flight.discovery_at is None
        assert flight.originated_at == 90.0
        assert flight.discovery_latency == 0.0

    def test_rreq_burst_walks_back_to_first_attempt(self):
        records = [
            _rec(0.5, "dsr", 0, "rreq", target=1, attempt=1),
            _rec(1.5, "dsr", 0, "rreq", target=1, attempt=2),
            _rec(3.5, "dsr", 0, "rreq", target=1, attempt=3),
            _rec(4.0, "dsr", 0, "tx", kind="data", uid=7, next_hop=1),
        ]
        (flight,) = assemble_flights(records)
        assert flight.discovery_at == 0.5  # burst start, not last retry

    def test_no_dsr_records_no_flights(self):
        records = [
            _rec(1.0, "dcf", 0, "tx_ok", frame="data/data 0->1 #5",
                 attempts=1),
        ]
        assert assemble_flights(records) == []


class TestRendering:
    def _flights(self):
        trace, _ = _traced_run(sim_time=20.0)
        return assemble_flights(list(trace))

    def test_format_flights_table(self):
        flights = self._flights()
        table = format_flights(flights, sort="latency", top=5)
        lines = table.splitlines()
        assert "sorted by latency" in lines[0]
        assert len(lines) <= 2 + 5
        assert "uid" in lines[1] and "energy" in lines[1]

    def test_all_sort_keys_accepted(self):
        flights = self._flights()
        for key in SORT_KEYS:
            format_flights(flights, sort=key, top=3)
        with pytest.raises(ValueError):
            format_flights(flights, sort="bogus")

    def test_flights_to_json_summary(self, tmp_path):
        flights = self._flights()
        out = flights_to_json(flights, tmp_path / "spans.json")
        payload = json.loads(out.read_text())
        assert payload["summary"]["total"] == len(flights)
        assert (payload["summary"]["delivered"]
                + payload["summary"]["dropped"]) == len(flights)
        assert len(payload["flights"]) == len(flights)
        assert payload["flights"][0]["hops"]

    def test_load_flights_from_rotated_gz(self, tmp_path):
        trace = TraceLog()
        config = SimulationConfig(scheme="rcast", num_nodes=10,
                                  num_connections=5, sim_time=15.0, seed=9)
        network = build_network(config, trace)
        network.run()
        sink = JsonlSink(tmp_path / "trace.jsonl.gz", rotate_bytes=50_000)
        for rec in trace:
            sink.emit(rec.time, rec.category, rec.node, rec.event,
                      **dict(rec.fields))
        sink.close()
        paths = sorted(tmp_path.glob("trace.*.jsonl.gz")) + [sink.path]
        flights = load_flights(paths)
        direct = assemble_flights(list(trace))
        assert [f.uid for f in flights] == [f.uid for f in direct]
        assert ([f.status for f in flights]
                == [f.status for f in direct])
