"""Tests for the DSR protocol engine."""

import pytest

from repro.routing.packets import DataPacket, RouteReply, next_uid

from tests.routing.conftest import AodvRig, DsrRig, line_rig


def test_multihop_delivery_end_to_end(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    assert len(rig5.delivered) == 1
    packet = rig5.delivered[0]
    assert packet.src == 0 and packet.dst == 4
    assert packet.trip_route == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("rig_class", [DsrRig, AodvRig], ids=["dsr", "aodv"])
def test_delivery_to_self_is_immediate(rig_class):
    rig = line_rig(5, rig=rig_class)
    uid = rig.agents[0].send_data(0, 100)
    metrics = rig.metrics.finalize("x", 0.0, [0.0] * 5, [0.0] * 5)
    assert metrics.data_delivered == 1


def test_route_cached_after_discovery(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    assert rig5.dsr[0].cache.route_to(4, rig5.sim.now) == (0, 1, 2, 3, 4)


def test_second_send_uses_cache_without_new_rreq(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    rreqs_before = len(rig5.records("rreq", node=0))
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=10.0)
    assert len(rig5.records("rreq", node=0)) == rreqs_before
    assert len(rig5.delivered) == 2


def test_intermediate_nodes_learn_from_forwarding(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    # Node 2 forwarded the packet and must know both directions.
    assert rig5.dsr[2].cache.route_to(4, rig5.sim.now) == (2, 3, 4)
    assert rig5.dsr[2].cache.route_to(0, rig5.sim.now) == (2, 1, 0)


def _overhear(rig, listener, packet, transmitter):
    """Feed ``packet`` to ``listener``'s tap; return the paths it offered
    its cache, as ``(path, source)`` in call order."""
    cache = rig.dsr[listener].cache
    offered = []
    add_path = cache.add_path

    def record(path, now, source="unknown", validate=True):
        offered.append((path, source))
        return add_path(path, now, source, validate)

    cache.add_path = record
    rig.dsr[listener]._on_promiscuous(packet, transmitter)
    return offered


def test_overhearing_splices_route():
    route = (1, 2, 3, 4)
    for t in range(len(route) - 1):
        rig = line_rig(5)
        packet = DataPacket(src=1, dst=4, uid=next_uid(), created_at=0.0,
                            trip_route=route, trip_index=t, payload_bytes=512)
        # Node 0 is off the route: it splices itself onto route[t].
        suffix = (0,) + route[t:]
        prefix = (0,) + tuple(reversed(route[: t + 1]))
        offered = _overhear(rig, 0, packet, transmitter=route[t])
        assert offered == [(suffix, "overhear"), (prefix, "overhear")]
        cache = rig.dsr[0].cache
        assert not cache._primary.entries
        # At t == 0 the prefix (0, route[0]) is a prefix of the suffix,
        # which already carries it.
        landed = [suffix] if t == 0 else [suffix, prefix]
        assert {p: e.source for p, e in cache._secondary.entries.items()} == {
            p: "overhear" for p in landed}
        # A node on the route learns nothing by splicing.
        assert _overhear(rig, 3, packet, transmitter=route[t]) == []
        assert len(rig.dsr[3].cache) == 0


def test_overheard_rrep_splices_its_path(rig5):
    # Node 3 answers a discovery for path (1, 2, 3): the RREP travels
    # 3 -> 2 -> 1, and node 0 overhears its first hop.
    rrep = RouteReply(src=3, dst=1, uid=next_uid(), created_at=0.0,
                      trip_route=(3, 2, 1), trip_index=0, path=(1, 2, 3))
    offered = _overhear(rig5, 0, rrep, transmitter=3)
    assert offered == [
        ((0, 3, 2, 1), "overhear"), ((0, 3), "overhear"),  # trip route
        ((0, 3), "overhear"), ((0, 3, 2, 1), "overhear"),  # RREP path
    ]
    assert list(rig5.dsr[0].cache._secondary.entries) == [(0, 3, 2, 1)]


def test_expanding_ring_first_when_neighbor_is_target():
    rig = line_rig(2)
    rig.dsr[0].send_data(1, 256)
    rig.run(until=2.0)
    assert len(rig.delivered) == 1
    # One non-propagating RREQ sufficed.
    assert rig.metrics.transmissions["rreq"] == 1


def test_network_flood_after_ring_failure(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    # Target is 4 hops away: ring-0 fails, then a network-wide flood runs.
    assert len(rig5.records("rreq", node=0)) == 2
    assert rig5.metrics.transmissions["rreq"] > 2  # rebroadcasts happened


def test_cache_reply_from_intermediate():
    rig = line_rig(5)
    rig.dsr[0].send_data(4, 512)
    rig.run(until=5.0)
    # Now node 1 knows a route to 4; a discovery by node 0 for node 4
    # (after clearing its own cache) is answered from node 1's cache
    # during the non-propagating ring.
    rig.dsr[0].cache.clear()
    rreq_before = rig.metrics.transmissions["rreq"]
    rig.dsr[0].send_data(4, 512)
    rig.run(until=10.0)
    assert len(rig.delivered) == 2
    assert rig.metrics.transmissions["rreq"] == rreq_before + 1  # ring only


def test_no_route_drops_after_max_retries():
    # Node 2 is unreachable (700 m away from the 2-node cluster); the
    # eighth and last discovery attempt times out at 58.1 s.
    rig = DsrRig([(0.0, 50.0), (100.0, 50.0), (800.0, 50.0)])
    rig.dsr[0].send_data(2, 512)
    rig.run(until=60.0)
    metrics = rig.metrics.finalize("x", 60.0, [0.0] * 3, [0.0] * 3)
    assert metrics.data_delivered == 0
    assert metrics.drop_reasons.get("no_route") == 1
    assert len(rig.dsr[0]._send_buffer) == 0


def test_link_failure_triggers_rerr_and_cache_purge(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    assert len(rig5.delivered) == 1
    # Kill node 4's radio; next packet fails at node 3.
    rig5.radios[4].sleep()
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=15.0)
    assert rig5.metrics.transmissions["rerr"] >= 1
    assert rig5.dsr[3].cache.route_to(4, rig5.sim.now) is None
    # The source purged the broken link too (RERR propagated back).
    assert rig5.dsr[0].cache.route_to(4, rig5.sim.now) is None


def test_salvage_uses_alternate_route():
    # Diamond: 0 - (1 top, 2 bottom) - 3; plus relay order forced by cache.
    positions = [(0.0, 100.0), (100.0, 180.0), (100.0, 20.0), (200.0, 100.0)]
    rig = DsrRig(positions, tx_range=150.0, cs_range=300.0)
    # Seed node 1 with knowledge of both routes to 3 and make 0 route via 1.
    rig.dsr[0].cache.add_path((0, 1, 3), now=0.0, source="rrep")
    rig.dsr[1].cache.add_path((1, 2, 3), now=0.0, source="rrep")
    # Break the 1->3 link by making 3 deaf... instead simulate by removing
    # 1-3 adjacency: sleep 3 is too blunt (kills 2-3 as well), so use a
    # targeted approach: node 3 sleeps during 1's transmission only.
    # Simpler: rely on salvage after forced failure - remove link in cache
    # is DSR's reaction, so force MAC failure by sleeping radio 3 and
    # waking it when node 2 transmits.  We approximate: sleep 3, send, and
    # wake 3 shortly after the RERR; the salvaged packet then arrives.
    rig.radios[3].sleep()
    rig.sim.schedule(0.5, rig.radios[3].wake)
    rig.dsr[0].send_data(3, 256)
    rig.run(until=10.0)
    assert rig.records("salvage", node=1)


def test_rerr_informs_overhearers(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    # Node 2 overheard/forwarded routes containing link 3-4.
    assert rig5.dsr[2].cache.route_to(4, rig5.sim.now) is not None
    rig5.radios[4].sleep()
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=15.0)
    # After RERR propagation, node 2 no longer advertises 3-4 routes.
    route = rig5.dsr[2].cache.route_to(4, rig5.sim.now)
    assert route is None


def test_metrics_records_role_numbers(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    counts = rig5.metrics.roles.counts()
    assert counts[1] == 1 and counts[2] == 1 and counts[3] == 1
    assert counts[0] == 0 and counts[4] == 0


def test_duplicate_rreqs_not_rebroadcast(rig5):
    rig5.dsr[0].send_data(4, 512)
    rig5.run(until=5.0)
    # Each node rebroadcast the network-wide RREQ at most once:
    # total rreq transmissions <= ring (1) + flood origin (1) + 4 nodes.
    assert rig5.metrics.transmissions["rreq"] <= 6


@pytest.mark.parametrize("rig_class", [DsrRig, AodvRig], ids=["dsr", "aodv"])
def test_buffer_overflow_drops_oldest(rig_class):
    # The send buffer holds 64 packets: two of 66 overflow, the rest are
    # dropped when the discovery gives up (DSR at 58.1 s, AODV at 13.4 s).
    rig = rig_class([(0.0, 50.0), (800.0, 50.0)])
    for _ in range(66):
        rig.agents[0].send_data(1, 100)
    rig.run(until=60.0)
    metrics = rig.metrics.finalize("x", 60.0, [0.0] * 2, [0.0] * 2)
    assert metrics.drop_reasons.get("buffer_overflow", 0) == 2
    assert metrics.drop_reasons.get("no_route", 0) == 64


def test_send_buffer_timeout():
    # Packets wait at most 30 s for a route; the discovery is still running.
    rig = DsrRig([(0.0, 50.0), (800.0, 50.0)])
    rig.dsr[0].send_data(1, 100)
    rig.run(until=31.0)
    # Force a sweep via another buffered send.
    rig.dsr[0].send_data(1, 100)
    rig.run(until=31.1)
    metrics = rig.metrics.finalize("x", 31.1, [0.0] * 2, [0.0] * 2)
    assert metrics.drop_reasons.get("buffer_timeout", 0) >= 1
