"""Focused tests for DSR route discovery mechanics."""

import pytest

from repro.routing.packets import RouteReply, RouteRequest, next_uid
from repro.sim.trace import TraceLog

from tests.routing.conftest import DsrRig, line_rig


def test_target_replies_to_multiple_rreq_copies():
    """DSR offers alternative routes: the target answers several copies."""
    # Diamond topology: two disjoint paths 0->3, so the flood reaches the
    # target twice with different records.
    positions = [(0.0, 100.0), (120.0, 170.0), (120.0, 30.0), (240.0, 100.0)]
    rig = DsrRig(positions, tx_range=160.0, cs_range=350.0)
    rig.dsr[0].send_data(3, 128)
    rig.run(until=5.0)
    assert len(rig.records("rrep", node=3)) == 2


def test_target_reply_cap_respected():
    """Four disjoint two-hop paths reach the target; it answers three."""
    positions = [(0.0, 100.0), (240.0, 100.0)] + [
        (120.0, 100.0 + dy) for dy in (-90.0, -30.0, 30.0, 90.0)]
    rig = DsrRig(positions, tx_range=160.0, cs_range=350.0)
    rig.dsr[0].send_data(1, 128)
    rig.run(until=5.0)
    assert len(rig.delivered) == 1
    assert len(rig.records("rrep", node=1)) == 3


def test_rreq_ttl_limits_propagation():
    rig = line_rig(4)
    rig.dsr[0].send_data(3, 128)
    rig.run(until=0.5)  # before the 0.6 s ring timeout escalates
    # Ring-0: origin broadcast only; no neighbor rebroadcast (TTL 1).
    assert rig.metrics.transmissions["rreq"] == 1


def test_discovery_schedule_for_unreachable_target():
    """A TTL-1 ring, then floods backing off 2.5 s doubling to a 10 s cap."""
    rig = DsrRig([(0.0, 50.0), (100.0, 50.0), (800.0, 50.0)])
    trace = rig.dsr[0].trace = TraceLog()
    rig.dsr[0].send_data(2, 512)
    rig.run(until=60.0)
    rreqs = [(rec.time, rec.get("attempt"), rec.get("ttl"))
             for rec in trace if rec.event == "rreq"]
    assert rreqs == [
        (0.0, 1, 1), (0.6, 2, 16), (3.1, 3, 16), (8.1, 4, 16),
        (18.1, 5, 16), (28.1, 6, 16), (38.1, 7, 16), (48.1, 8, 16),
    ]
    assert [rec.time for rec in trace
            if rec.event == "discovery_failed"] == [58.1]
    metrics = rig.metrics.finalize("x", 60.0, [0.0] * 3, [0.0] * 3)
    assert metrics.drop_reasons == {"no_route": 1}


def test_cache_reply_suppressed_after_overhearing_answer():
    """Once an RREP for a request is overheard, other cache holders shut up."""
    rig = line_rig(4)
    # Warm every cache with a route to 3.
    rig.dsr[0].send_data(3, 128)
    rig.run(until=5.0)
    rreps_before = rig.metrics.transmissions["rrep"]
    # Clear the source cache and rediscover: nodes 1 and 2 both hold routes,
    # but jitter + suppression means not everyone floods replies.
    rig.dsr[0].cache.clear()
    rig.dsr[0]._seen_rreqs.clear()
    rig.dsr[0].send_data(3, 128)
    rig.run(until=10.0)
    new_rreps = rig.metrics.transmissions["rrep"] - rreps_before
    # One cache reply from node 1 (1 hop back) is enough.
    assert new_rreps <= 2
    assert len(rig.delivered) == 2


def test_forwarded_rrep_marks_request_answered():
    rig = line_rig(3)
    rig.dsr[0].send_data(2, 128)
    rig.run(until=5.0)
    # Node 1 forwarded the target's RREP and must know the request was
    # answered (suppression bookkeeping).
    assert len(rig.dsr[1]._answered) >= 1


def test_discovery_completes_only_once():
    rig = line_rig(4)
    rig.dsr[0].send_data(3, 128)
    rig.run(until=5.0)
    assert 3 not in rig.dsr[0]._discoveries  # cleaned up
    # Timer was cancelled: no stray retry floods after completion.
    rreq_after_completion = len(rig.records("rreq", node=0))
    rig.run(until=12.0)
    assert len(rig.records("rreq", node=0)) == rreq_after_completion


def test_salvage_count_bounded():
    from repro.routing.packets import DataPacket

    packet = DataPacket(src=0, dst=3, uid=next_uid(), created_at=0.0,
                        trip_route=(0, 1, 3), trip_index=0, payload_bytes=10)
    salvaged = packet.salvaged((1, 2, 3)).salvaged((2, 4, 3))
    assert salvaged.salvage_count == 2


def test_rrep_request_key_round_trips():
    rrep = RouteReply(src=2, dst=0, uid=next_uid(), created_at=0.0,
                      trip_route=(2, 1, 0), trip_index=0, path=(0, 1, 2),
                      request_key=(0, 42))
    assert rrep.request_key == (0, 42)
    advanced = rrep.advance()
    assert advanced.request_key == (0, 42)
