"""Tests for DSR packet types."""

from dataclasses import MISSING, fields

import pytest

from repro.errors import RoutingError
from repro.routing.packets import (
    DataPacket,
    RouteError,
    RouteReply,
    RouteRequest,
    next_uid,
)


def data(route=(0, 1, 2, 3), idx=0, payload=512):
    return DataPacket(src=route[0], dst=route[-1], uid=next_uid(),
                      created_at=0.0, trip_route=tuple(route), trip_index=idx,
                      payload_bytes=payload)


def test_uids_unique():
    assert next_uid() != next_uid()


def test_data_hops():
    p = data()
    assert p.trip_route[p.trip_index] == 0
    assert p.next_hop == 1
    assert p.trip_index + 1 != len(p.trip_route) - 1


def test_advance_produces_new_packet():
    p = data()
    q = p.advance()
    assert q is not p
    assert q.trip_index == 1
    assert q.trip_route[q.trip_index] == 1
    assert q.next_hop == 2
    assert p.trip_index == 0  # original untouched


def test_at_last_hop():
    p = data(idx=2)
    assert p.trip_index + 1 == len(p.trip_route) - 1
    assert p.next_hop == p.trip_route[-1]
    with pytest.raises(RoutingError):
        p.advance()  # the trip destination never transmits the packet on


def test_trip_validation_rejects_loop():
    with pytest.raises(RoutingError):
        data(route=(0, 1, 0, 2))


def test_salvage_rejects_looping_route():
    with pytest.raises(RoutingError, match="loop"):
        data(idx=1).salvaged((1, 5, 1, 3))


def test_trip_validation_rejects_short_route():
    with pytest.raises(RoutingError):
        data(route=(0,))


def test_trip_validation_rejects_bad_index():
    with pytest.raises(RoutingError):
        data(idx=3)  # index must address a transmitter, not the last hop
    with pytest.raises(RoutingError):
        data(idx=-1)


def test_data_size_grows_with_route_length():
    short = data(route=(0, 1))
    long = data(route=(0, 1, 2, 3, 4))
    assert long.size_bytes == short.size_bytes + 3 * 4


def test_data_size_includes_payload():
    assert data(payload=512).size_bytes - data(payload=0).size_bytes == 512


def test_salvage_resets_trip_and_counts():
    p = data(idx=1)
    s = p.salvaged((1, 5, 3))
    assert s.trip_route == (1, 5, 3)
    assert s.trip_index == 0
    assert s.salvage_count == 1
    assert s.uid == p.uid  # same logical packet


def test_rreq_extended():
    rreq = RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                        request_id=1, ttl=5, route_record=(0,))
    ext = rreq.extended(3)
    assert ext.route_record == (0, 3)
    assert ext.ttl == 4
    assert rreq.route_record == (0,)  # original untouched


def test_rreq_extended_rejects_duplicate_node():
    rreq = RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                        request_id=1, ttl=5, route_record=(0, 3))
    with pytest.raises(RoutingError):
        rreq.extended(3)


def test_rreq_record_rejects_loop():
    with pytest.raises(RoutingError, match="loop"):
        RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                     request_id=1, ttl=5, route_record=(0, 3, 0))


def test_rreq_record_must_start_at_origin():
    with pytest.raises(RoutingError):
        RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                     request_id=1, ttl=5, route_record=(1, 0))


def test_rreq_negative_ttl_rejected():
    with pytest.raises(RoutingError):
        RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                     request_id=1, ttl=-1, route_record=(0,))


def test_rreq_size_grows_with_record():
    a = RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                     request_id=1, ttl=5, route_record=(0,))
    b = RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                     request_id=1, ttl=5, route_record=(0, 1, 2))
    assert b.size_bytes == a.size_bytes + 8


def test_rrep_fields_and_validation():
    rrep = RouteReply(src=3, dst=0, uid=next_uid(), created_at=0.0,
                      trip_route=(3, 2, 1, 0), trip_index=0,
                      path=(0, 1, 2, 3), request_key=(0, 7))
    assert rrep.kind == "rrep"
    assert rrep.request_key == (0, 7)
    with pytest.raises(RoutingError):
        RouteReply(src=3, dst=0, uid=next_uid(), created_at=0.0,
                   trip_route=(3, 0), trip_index=0, path=(3,))
    with pytest.raises(RoutingError):
        RouteReply(src=3, dst=0, uid=next_uid(), created_at=0.0,
                   trip_route=(3, 0), trip_index=0, path=(0, 1, 0))


def test_rerr_validation():
    rerr = RouteError(src=2, dst=0, uid=next_uid(), created_at=0.0,
                      trip_route=(2, 1, 0), trip_index=0, broken=(2, 3))
    assert rerr.broken == (2, 3)
    with pytest.raises(RoutingError):
        RouteError(src=2, dst=0, uid=next_uid(), created_at=0.0,
                   trip_route=(2, 1, 0), trip_index=0, broken=(2, 2))


def test_kind_markers():
    assert data().kind == "data"
    rreq = RouteRequest(src=0, dst=9, uid=next_uid(), created_at=0.0,
                        request_id=1, ttl=5, route_record=(0,))
    assert rreq.kind == "rreq"
    assert rreq.target == 9


# Every field of each packet class, set to a non-default value, and the
# copy under test with the fields it is meant to change.
_COPY_CASES = [
    ("data.advance", DataPacket,
     dict(src=1, dst=4, uid=101, created_at=2.5, trip_route=(1, 2, 3, 4),
          trip_index=1, payload_bytes=512, app_seq=7, salvage_count=1),
     lambda p: p.advance(), {"trip_index": 2}),
    ("data.salvaged", DataPacket,
     dict(src=1, dst=4, uid=102, created_at=2.5, trip_route=(1, 2, 3, 4),
          trip_index=1, payload_bytes=512, app_seq=7, salvage_count=1),
     lambda p: p.salvaged((2, 5, 4)),
     {"trip_route": (2, 5, 4), "trip_index": 0, "salvage_count": 2}),
    ("rrep.advance", RouteReply,
     dict(src=3, dst=0, uid=103, created_at=1.5, trip_route=(3, 2, 1, 0),
          trip_index=1, path=(0, 1, 2, 3), request_key=(0, 7)),
     lambda p: p.advance(), {"trip_index": 2}),
    ("rerr.advance", RouteError,
     dict(src=2, dst=0, uid=104, created_at=0.5, trip_route=(2, 1, 0),
          trip_index=0, broken=(2, 3)),
     lambda p: p.advance(), {"trip_index": 1}),
    ("rreq.extended", RouteRequest,
     dict(src=0, dst=9, uid=105, created_at=3.5, request_id=4, ttl=5,
          route_record=(0, 1)),
     lambda p: p.extended(2), {"ttl": 4, "route_record": (0, 1, 2)}),
]


@pytest.mark.parametrize("cls, values, copy, changed",
                         [case[1:] for case in _COPY_CASES],
                         ids=[case[0] for case in _COPY_CASES])
def test_copies_keep_every_other_field(cls, values, copy, changed):
    # A field added to the class must be added here too, with a value
    # other than its default, or a copy that drops it would go unseen.
    assert set(values) == {f.name for f in fields(cls)}
    for f in fields(cls):
        assert f.default is MISSING or values[f.name] != f.default, f.name
    packet = cls(**values)
    result = copy(packet)
    assert type(result) is cls
    assert {f.name: getattr(result, f.name) for f in fields(cls)} == {
        **values, **changed}
