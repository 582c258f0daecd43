"""Tests for the AODV routing table."""

import pytest

from repro.errors import RoutingError
from repro.routing.aodv.table import RoutingTable


def test_install_and_lookup():
    table = RoutingTable(0, active_route_timeout=3.0)
    assert table.update(5, next_hop=1, hop_count=2, dst_seq=10, now=0.0)
    route = table.lookup(5, 1.0)
    assert route.next_hop == 1
    assert route.hop_count == 2
    assert route.dst_seq == 10


def test_expiry_invalidates():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    assert table.lookup(5, 2.9) is not None
    assert table.lookup(5, 3.0) is None
    assert len(table) == 0  # the expired entry is invalid now


def test_refresh_extends_lifetime():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    table.refresh(5, now=2.0)
    assert table.lookup(5, 4.0) is not None
    assert table.lookup(5, 5.1) is None


def test_newer_sequence_replaces():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    assert table.update(5, 2, 5, 11, now=0.0)  # worse hops but newer seq
    assert table.lookup(5, 1.0).next_hop == 2


def test_equal_sequence_needs_shorter_route():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 3, 10, now=0.0)
    assert not table.update(5, 2, 4, 10, now=0.0)  # same seq, longer
    assert table.update(5, 2, 2, 10, now=0.0)      # same seq, shorter
    assert table.lookup(5, 1.0).hop_count == 2


def test_stale_sequence_rejected():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    assert not table.update(5, 2, 1, 9, now=0.0)
    assert table.lookup(5, 1.0).next_hop == 1


def test_confirming_same_route_refreshes():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    table.update(5, 1, 2, 10, now=2.0)  # rejected as not-better, but refreshed
    assert table.lookup(5, 4.5) is not None


def test_invalidate_via_next_hop():
    table = RoutingTable(0, active_route_timeout=30.0)
    table.update(5, 1, 2, 10, now=0.0)
    table.update(6, 1, 3, 4, now=0.0)
    table.update(7, 2, 1, 8, now=0.0)
    broken = table.invalidate_via(1)
    assert sorted(r.dst for r in broken) == [5, 6]
    assert table.lookup(5, 0.1) is None
    assert table.lookup(7, 0.1) is not None
    # Sequence numbers bumped on invalidation.
    assert all(r.dst_seq in (11, 5) for r in broken)


def test_invalidate_dst_respects_via():
    table = RoutingTable(0, active_route_timeout=30.0)
    table.update(5, 1, 2, 10, now=0.0)
    assert not table.invalidate_dst(5, 12, via=9)  # different next hop
    assert table.invalidate_dst(5, 12, via=1)
    assert table.lookup(5, 0.1) is None
    assert table.last_known_seq(5) == 12


def test_last_known_seq_unknown():
    table = RoutingTable(0, active_route_timeout=3.0)
    assert table.last_known_seq(42) == -1


def test_invalidate_via_and_len():
    table = RoutingTable(0, active_route_timeout=3.0)
    table.update(5, 1, 2, 10, now=0.0)
    table.update(6, 2, 1, 3, now=0.0)
    assert len(table) == 2
    table.invalidate_via(1)
    assert len(table) == 1
    assert table.lookup(5, 1.0) is None
    assert table.lookup(6, 1.0) is not None


def test_self_route_rejected():
    table = RoutingTable(0, active_route_timeout=3.0)
    with pytest.raises(RoutingError):
        table.update(0, 1, 1, 1, now=0.0)


def test_bad_timeout_rejected():
    with pytest.raises(RoutingError):
        RoutingTable(0, active_route_timeout=0.0)
