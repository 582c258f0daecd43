"""Tests for the AODV protocol engine."""

import pytest

from tests.routing.conftest import AodvRig
from tests.routing.conftest import line_rig as _line_rig


def line_rig(n=5, spacing=100.0, **kwargs):
    return _line_rig(n, spacing, rig=AodvRig, **kwargs)


def test_multihop_delivery():
    rig = line_rig(5)
    rig.aodv[0].send_data(4, 512)
    rig.run(until=10.0)
    assert len(rig.delivered) == 1
    packet = rig.delivered[0]
    assert packet.src == 0 and packet.dst == 4
    assert packet.hops_travelled == 3  # retransmitted by 3 relays


def test_forward_and_reverse_routes_installed():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=2.0)  # before the 3 s active-route timeout
    now = rig.sim.now
    assert rig.aodv[0].table.lookup(3, now).next_hop == 1
    assert rig.aodv[1].table.lookup(3, now).next_hop == 2
    # Reverse routes toward the originator exist too.
    assert rig.aodv[2].table.lookup(0, now).next_hop == 1


def test_second_send_reuses_route():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=2.0)
    rreqs = rig.originated(0, "rreq")
    rig.aodv[0].send_data(3, 256)  # within the route lifetime
    rig.run(until=4.0)
    assert rig.originated(0, "rreq") == rreqs
    assert len(rig.delivered) == 2


def test_route_expires_without_traffic():
    rig = line_rig(3)
    rig.aodv[0].send_data(2, 256)
    rig.run(until=3.0)
    assert len(rig.delivered) == 1
    # Routes live 3 s past their last use: idle until then, and a new
    # send re-discovers.
    rig.run(until=8.0)
    rreqs = rig.originated(0, "rreq")
    rig.aodv[0].send_data(2, 256)
    rig.run(until=13.0)
    assert rig.originated(0, "rreq") > rreqs
    assert len(rig.delivered) == 2


def test_expanding_ring_widens():
    rig = line_rig(5)
    rig.aodv[0].send_data(4, 256)
    rig.run(until=10.0)
    # Target at 4 hops: the TTL-1 ring cannot reach it, so the source
    # retried with wider rings.
    assert rig.originated(0, "rreq") >= 2
    assert len(rig.delivered) == 1


def test_duplicate_rreqs_suppressed():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=10.0)
    # Each node rebroadcasts a given (origin, rreq_id) at most once.
    assert rig.metrics.transmissions["rreq"] <= 2 + 3 * 3


def test_intermediate_reply_from_fresh_route():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=2.0)
    # Expire node 0's own route (expiry, unlike invalidation, does not bump
    # the destination sequence, so node 1's equally-fresh table entry can
    # answer the rediscovery without the flood reaching node 3 again).
    rig.aodv[0].table._routes[3].expires_at = rig.sim.now
    rreps_at_target = rig.originated(3, "rrep")
    rig.aodv[0].send_data(3, 256)
    rig.run(until=4.0)
    assert len(rig.delivered) == 2
    assert rig.originated(3, "rrep") == rreps_at_target  # answered mid-path
    assert rig.originated(1, "rrep") >= 1


def test_link_failure_triggers_rerr_and_rediscovery():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=2.0)
    rig.radios[3].sleep()
    rig.aodv[0].send_data(3, 256)  # route still alive: fails at node 2
    rig.run(until=8.0)
    assert rig.metrics.transmissions["rerr"] >= 1
    assert rig.aodv[2].table.lookup(3, rig.sim.now) is None
    # Wake the destination: the source's rediscovery finds it again.
    rig.radios[3].wake()
    rig.aodv[0].send_data(3, 256)
    rig.run(until=20.0)
    assert len(rig.delivered) >= 2


def test_rerr_propagates_to_upstream_users():
    rig = line_rig(5)
    rig.aodv[0].send_data(4, 256)
    rig.run(until=4.5)
    assert rig.aodv[1].table.lookup(4, rig.sim.now) is not None
    rig.radios[4].sleep()
    rig.aodv[0].send_data(4, 256)
    rig.run(until=10.0)
    # Node 1 used node 2 toward 4; the RERR chain must have reached it.
    assert rig.aodv[1].table.lookup(4, rig.sim.now) is None


def test_no_promiscuous_learning():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=5.0)
    # Overhearing may happen, but tables only contain endpoints the node
    # legitimately routed for.
    for agent in rig.aodv.values():
        table = agent.table
        assert {dst for dst in table._routes
                if table.lookup(dst, rig.sim.now) is not None} <= {0, 3}


def test_unreachable_target_drops_after_retries():
    # Rings of TTL 1, 3, 5 and 7, then network-wide TTL 16: the source
    # gives up when that flood times out at 13.4 s.
    rig = AodvRig([(0.0, 50.0), (100.0, 50.0), (900.0, 50.0)])
    rig.aodv[0].send_data(2, 256)
    rig.run(until=15.0)
    metrics = rig.metrics.finalize("x", 15.0, [0.0] * 3, [0.0] * 3)
    assert metrics.data_delivered == 0
    assert metrics.drop_reasons.get("no_route") == 1
    assert len(rig.aodv[0]._send_buffer) == 0


def test_role_numbers_recorded_for_relays():
    rig = line_rig(4)
    rig.aodv[0].send_data(3, 256)
    rig.run(until=5.0)
    counts = rig.metrics.roles.counts()
    assert counts[1] >= 1 and counts[2] >= 1
