"""Behavioral signatures: each scheme must exhibit its defining mechanism."""

import pytest

from repro.mac.psm import PsmMac
from repro.network import SimulationConfig, build_network
from repro.obs.sinks import FilteredSink
from repro.sim.trace import NULL_TRACE, TraceLog


def make_network(scheme, trace=NULL_TRACE, **overrides):
    params = dict(
        scheme=scheme, num_nodes=30, arena_w=800.0, arena_h=300.0,
        mobility="static", num_connections=6, packet_rate=0.5,
        sim_time=30.0, seed=13,
    )
    params.update(overrides)
    return build_network(SimulationConfig(**params), trace)


def run_traced(scheme, *categories):
    """Run ``scheme``'s network keeping the records of ``categories``."""
    log = TraceLog()
    network = make_network(scheme, FilteredSink(log, categories))
    metrics = network.run()
    return network, metrics, log


def count_immediate_sends(network):
    """Count DCF submissions without a deadline from now on: a PSM MAC
    gives every ATIM-path frame its window's end, and an immediate send
    none."""
    count = [0]
    for node in network.nodes:
        dcf = node.mac.dcf

        def submit(frame, on_done, deadline=None, submit=dcf.submit):
            count[0] += deadline is None
            submit(frame, on_done, deadline=deadline)

        dcf.submit = submit
    return count


def test_psm_nodes_actually_sleep():
    network, _, log = run_traced("rcast", "psm")
    sleepers = {r.node for r in log if r.event == "sleep"}
    assert sleepers
    for node in network.nodes:
        assert (node.radio.meter.sleep_time > 0) == (node.node_id in sleepers)


def test_always_on_nodes_never_sleep():
    network = make_network("ieee80211")
    network.run()
    for node in network.nodes:
        assert node.radio.meter.sleep_time == 0.0


def test_unconditional_psm_overhears_much_more_than_rcast():
    overheard = {}
    for scheme in ("psm", "rcast", "psm-nooh"):
        network = make_network(scheme)
        metrics = network.run()
        overheard[scheme] = int(metrics.overheard_by_node.sum())
    assert overheard["psm-nooh"] == 0
    assert overheard["rcast"] > 0
    assert overheard["psm"] > overheard["rcast"] * 2


def test_rcast_empirical_election_rate_tracks_neighbor_count():
    network = make_network("rcast")
    network.run()
    deciders = [n.rcast.decider for n in network.nodes]
    decisions = sum(d.decisions for d in deciders)
    overhears = sum(d.overhears for d in deciders)
    assert decisions > 0
    rate = overhears / decisions
    # Mean neighbor count in this topology is ~8-20; the empirical election
    # rate must sit in the corresponding 1/n band.
    mean_neighbors = sum(
        network.positions.neighbor_count(i) for i in range(30)
    ) / 30
    expected = 1.0 / mean_neighbors
    assert 0.3 * expected < rate < 3.0 * expected


def test_odpm_actually_switches_modes():
    network, _, log = run_traced("odpm", "odpm")
    switches = sum(1 for r in log if r.event == "am_enter")
    assert switches > 0
    # Someone was in AM at some point but PS nodes existed too.
    am_time = sum(n.radio.meter.awake_time for n in network.nodes)
    assert am_time < 30.0 * 30  # not everyone awake all the time


def test_odpm_uses_immediate_transmissions():
    network = make_network("odpm")
    immediate = count_immediate_sends(network)
    network.run()
    assert immediate[0] > 0


def test_pure_psm_never_sends_immediately():
    for scheme in ("psm", "psm-nooh", "rcast"):
        network = make_network(scheme)
        immediate = count_immediate_sends(network)
        network.run()
        assert immediate[0] == 0, scheme


def test_rerr_purges_caches_network_wide():
    """Under Rcast, RERRs are overheard unconditionally: after a run with
    breaks, no cache holds a path through a link reported broken."""
    network = make_network("rcast", mobility="waypoint", max_speed=4.0,
                           pause_time=0.0, sim_time=40.0)
    metrics = network.run()
    # This scenario is mobile enough to break some links.
    assert metrics.link_breaks > 0


def test_announcement_counters_positive_under_traffic():
    _, metrics, log = run_traced("rcast", "atim")
    assert any(r.event == "advertise" for r in log)
    assert metrics.overhear_elections > 0


def test_psm_family_macs_share_peer_table():
    network = make_network("psm")
    macs = [n.mac for n in network.nodes if isinstance(n.mac, PsmMac)]
    assert len(macs) == 30
    group = macs[0]._fanout
    assert all(m._fanout is group for m in macs)
    assert group.macs == {m.node_id: m for m in macs}
    assert network.channel.fanout == group.deliver
