"""Tests for the Node bundle."""

import pytest

from repro.network import build_network

from tests.conftest import line_config


def test_node_start_starts_sources():
    config = line_config("rcast", n=3, sim_time=5.0,
                         num_connections=1, packet_rate=1.0)
    network = build_network(config)
    source_node = next(n for n in network.nodes if n.sources)
    assert not source_node.sources[0]._started
    source_node.start()
    assert source_node.sources[0]._started


def test_node_energy_property_tracks_radio():
    config = line_config("ieee80211", n=2, sim_time=4.0)
    network = build_network(config)
    metrics = network.run()
    for node in network.nodes:
        assert node.energy_joules == pytest.approx(4.0 * 1.15)
        assert node.awake_time == pytest.approx(4.0)


def test_finalize_freezes_meter():
    config = line_config("rcast", n=2, sim_time=2.0)
    network = build_network(config)
    network.run()
    for node in network.nodes:
        assert node.radio.meter._finalized


def test_rcast_manager_attached_for_psm_schemes():
    network = build_network(line_config("rcast", n=2, sim_time=1.0))
    assert all(n.rcast is not None for n in network.nodes)
    network = build_network(line_config("ieee80211", n=2, sim_time=1.0))
    assert all(n.rcast is None for n in network.nodes)
