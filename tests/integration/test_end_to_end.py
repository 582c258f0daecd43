"""Integration tests: full stacks, end to end."""

import numpy as np
import pytest

from repro.network import SCHEMES, SimulationConfig, run_simulation

from tests.conftest import line_config, line_positions


@pytest.mark.parametrize("scheme", SCHEMES)
def test_multihop_delivery_on_line(scheme):
    """Every scheme must move data across a forced 4-hop path."""
    config = line_config(scheme, n=5, sim_time=30.0)
    from repro.network import build_network

    network = build_network(config)
    network.nodes[0].dsr.send_data(4, 512)
    metrics = network.run()
    assert metrics.data_sent == 1
    assert metrics.data_delivered == 1, metrics.drop_reasons
    assert metrics.avg_delay > 0


@pytest.mark.parametrize("scheme", ["ieee80211", "rcast", "odpm"])
def test_cbr_traffic_delivers(scheme):
    config = SimulationConfig(
        scheme=scheme, num_nodes=30, arena_w=800.0, arena_h=300.0,
        mobility="static", num_connections=5, packet_rate=0.5,
        sim_time=40.0, seed=3,
    )
    metrics = run_simulation(config)
    assert metrics.data_sent > 0
    assert metrics.pdr > 0.85


def test_determinism_same_seed_identical_metrics():
    config = SimulationConfig(
        scheme="rcast", num_nodes=25, arena_w=700.0, arena_h=300.0,
        num_connections=4, packet_rate=0.5, sim_time=30.0, seed=11,
        mobility="waypoint", max_speed=2.0, pause_time=0.0,
    )
    a = run_simulation(config)
    b = run_simulation(config)
    assert a.data_sent == b.data_sent
    assert a.data_delivered == b.data_delivered
    assert a.total_energy == pytest.approx(b.total_energy)
    assert np.allclose(a.node_energy, b.node_energy)
    assert a.transmissions == b.transmissions


def test_different_seed_different_run():
    base = dict(
        scheme="rcast", num_nodes=25, arena_w=700.0, arena_h=300.0,
        num_connections=4, packet_rate=0.5, sim_time=30.0,
        mobility="waypoint", max_speed=2.0, pause_time=0.0,
    )
    a = run_simulation(SimulationConfig(seed=1, **base))
    b = run_simulation(SimulationConfig(seed=2, **base))
    assert not np.allclose(a.node_energy, b.node_energy)


def test_energy_ordering_between_schemes():
    """The paper's headline ordering: 802.11 > PSM > ODPM > Rcast."""
    results = {}
    for scheme in ("ieee80211", "psm", "odpm", "rcast"):
        config = SimulationConfig(
            scheme=scheme, num_nodes=40, arena_w=900.0, arena_h=300.0,
            mobility="static", num_connections=8, packet_rate=0.4,
            sim_time=50.0, seed=5,
        )
        results[scheme] = run_simulation(config)
    assert results["ieee80211"].total_energy > results["psm"].total_energy
    assert results["psm"].total_energy > results["odpm"].total_energy
    assert results["odpm"].total_energy > results["rcast"].total_energy


def test_rcast_balances_better_than_odpm():
    results = {}
    for scheme in ("odpm", "rcast"):
        config = SimulationConfig(
            scheme=scheme, num_nodes=40, arena_w=900.0, arena_h=300.0,
            mobility="static", num_connections=8, packet_rate=0.4,
            sim_time=50.0, seed=5,
        )
        results[scheme] = run_simulation(config)
    assert (results["rcast"].energy_variance
            < results["odpm"].energy_variance)


def test_psm_delay_exceeds_always_on():
    delays = {}
    for scheme in ("ieee80211", "rcast"):
        config = line_config(scheme, n=4, sim_time=30.0)
        from repro.network import build_network

        network = build_network(config)
        network.nodes[0].dsr.send_data(3, 512)
        delays[scheme] = network.run().avg_delay
    # PSM pays roughly half a beacon interval per hop.
    assert delays["rcast"] > delays["ieee80211"] + 0.2


def test_link_break_and_rediscovery_under_forced_mobility():
    """A relay walks away; DSR must detect the break and re-route."""
    from repro.mobility.base import Arena
    from repro.mobility.static import StaticPlacement
    from repro.network import build_network

    # Diamond: two disjoint 2-hop routes from 0 to 3.
    positions = ((0.0, 100.0), (140.0, 160.0), (140.0, 40.0), (280.0, 100.0))
    config = SimulationConfig(
        scheme="ieee80211", num_nodes=4, arena_w=400.0, arena_h=250.0,
        mobility="static", positions=positions,
        num_connections=0, sim_time=40.0, seed=2, tx_range=160.0,
        cs_range=320.0,
    )
    network = build_network(config)
    dsr0 = network.nodes[0].dsr

    # Discover a route, then kill whichever relay it uses and retry.
    dsr0.send_data(3, 256)

    def break_and_resend():
        route = dsr0.cache.route_to(3, network.sim.now)
        relay = route[1]
        network.nodes[relay].radio.sleep()
        dsr0.send_data(3, 256)

    network.sim.schedule(5.0, break_and_resend)
    metrics = network.run()
    assert metrics.data_delivered == 2
    assert metrics.link_breaks >= 1


def test_battery_config_threads_through():
    config = line_config("rcast", n=3, sim_time=10.0, battery_joules=100.0)
    from repro.network import build_network

    network = build_network(config)
    for node in network.nodes:
        assert node.radio.meter.battery_joules == 100.0


def test_awake_time_consistent_with_energy():
    config = SimulationConfig(
        scheme="rcast", num_nodes=20, arena_w=600.0, arena_h=300.0,
        mobility="static", num_connections=3, packet_rate=0.4,
        sim_time=30.0, seed=9,
    )
    metrics = run_simulation(config)
    # E = 1.15*awake + 0.045*(T - awake) for every node.
    expected = (1.15 * metrics.node_awake_time
                + 0.045 * (30.0 - metrics.node_awake_time))
    assert np.allclose(metrics.node_energy, expected, rtol=1e-6)
