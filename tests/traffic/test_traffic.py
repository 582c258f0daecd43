"""Tests for traffic sources and connection selection."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.network import SimulationConfig
from repro.sim.engine import Simulator
from repro.traffic.cbr import CbrSource
from repro.traffic.pairs import choose_connections


class FakeDsr:
    """Records send_data calls."""

    def __init__(self, node_id=0):
        self.node_id = node_id
        self.calls = []

    def send_data(self, dst, payload_bytes, app_seq=0):
        self.calls.append((dst, payload_bytes, app_seq))
        return len(self.calls)


# --- choose_connections -------------------------------------------------


def test_pairs_count_and_validity():
    rng = random.Random(1)
    pairs = choose_connections(100, 20, rng)
    assert len(pairs) == 20
    for src, dst in pairs:
        assert 0 <= src < 100
        assert 0 <= dst < 100
        assert src != dst


def test_pairs_distinct_sources():
    rng = random.Random(2)
    pairs = choose_connections(50, 30, rng)
    sources = [s for s, _ in pairs]
    assert len(set(sources)) == 30


def test_pairs_deterministic_for_seed():
    assert (choose_connections(40, 10, random.Random(9))
            == choose_connections(40, 10, random.Random(9)))


def test_pairs_validation():
    """choose_connections trusts its arguments; the config checks them."""
    SimulationConfig(num_nodes=1, num_connections=0)  # no traffic: fine
    with pytest.raises(ConfigurationError, match="num_connections"):
        SimulationConfig(num_nodes=10, num_connections=-1)
    with pytest.raises(ConfigurationError, match="two nodes"):
        SimulationConfig(num_nodes=1, num_connections=1)
    with pytest.raises(ConfigurationError, match="distinct sources"):
        SimulationConfig(num_nodes=5, num_connections=6)


# --- CbrSource ------------------------------------------------------------


def test_cbr_rate_and_count():
    sim = Simulator()
    dsr = FakeDsr()
    source = CbrSource(sim, dsr, dst=5, rate_pps=2.0, packet_bytes=512,
                       start=0.0, stop=10.0)
    source.start()
    sim.run(until=10.0)
    # 2 pkt/s for 10 s: 20 packets (first at t=0).
    assert len(dsr.calls) == 20
    assert source.sent == 20


def test_cbr_payload_and_sequence():
    sim = Simulator()
    dsr = FakeDsr()
    CbrSource(sim, dsr, 3, 1.0, 256, stop=5.0).start()
    sim.run(until=5.0)
    assert dsr.calls[0] == (3, 256, 0)
    assert dsr.calls[1] == (3, 256, 1)


def test_cbr_jitter_delays_first_packet():
    sim = Simulator()
    dsr = FakeDsr()
    source = CbrSource(sim, dsr, 3, 1.0, 256, rng=random.Random(1), stop=100.0)
    source.start()
    sim.run(until=0.0)
    assert dsr.calls == []  # jittered into (0, 1] s
    sim.run(until=1.01)
    assert len(dsr.calls) == 1


def test_cbr_intervals_are_constant():
    sim = Simulator()
    times = []
    dsr = FakeDsr()
    dsr.send_data = lambda *a, **k: times.append(sim.now)
    CbrSource(sim, dsr, 3, 4.0, 100, stop=3.0).start()
    sim.run(until=3.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(g - 0.25) < 1e-9 for g in gaps)


def test_cbr_start_is_idempotent():
    sim = Simulator()
    dsr = FakeDsr()
    source = CbrSource(sim, dsr, 3, 1.0, 100, stop=2.0)
    source.start()
    source.start()
    sim.run(until=2.0)
    assert len(dsr.calls) == 2


def test_cbr_validation():
    """CbrSource trusts its arguments; the config checks them."""
    with pytest.raises(ConfigurationError, match="packet_rate"):
        SimulationConfig(packet_rate=0.0)
    with pytest.raises(ConfigurationError, match="packet_bytes"):
        SimulationConfig(packet_bytes=0)


def test_cbr_src_property():
    sim = Simulator()
    assert CbrSource(sim, FakeDsr(7), 1, 1.0, 100).src == 7
