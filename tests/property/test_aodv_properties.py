"""Property-based tests for the AODV routing table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.aodv.table import RoutingTable

updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),    # dst
        st.integers(min_value=1, max_value=8),    # next hop
        st.integers(min_value=1, max_value=10),   # hop count
        st.integers(min_value=0, max_value=20),   # dst seq
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # now
    ),
    min_size=1, max_size=60,
)


@given(updates_strategy)
@settings(max_examples=50, deadline=None)
def test_sequence_numbers_never_regress(updates):
    """Whatever the update order, a valid entry's seq never goes backwards."""
    table = RoutingTable(0, active_route_timeout=1000.0)
    last_seq = {}
    for dst, nh, hops, seq, now in sorted(updates, key=lambda u: u[4]):
        table.update(dst, nh, hops, seq, now)
        route = table.lookup(dst, now)
        assert route is not None
        if dst in last_seq:
            assert route.dst_seq >= last_seq[dst]
        last_seq[dst] = route.dst_seq


@given(updates_strategy)
@settings(max_examples=50, deadline=None)
def test_equal_seq_hop_count_never_worsens(updates):
    table = RoutingTable(0, active_route_timeout=1000.0)
    best = {}
    for dst, nh, hops, seq, now in sorted(updates, key=lambda u: u[4]):
        table.update(dst, nh, hops, seq, now)
        route = table.lookup(dst, now)
        key = (dst, route.dst_seq)
        if key in best:
            assert route.hop_count <= best[key]
        best[key] = route.hop_count


@given(updates_strategy,
       st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_invalidate_via_removes_all_and_only_matching(updates, broken_hop):
    table = RoutingTable(0, active_route_timeout=1000.0)
    for dst, nh, hops, seq, now in sorted(updates, key=lambda u: u[4]):
        table.update(dst, nh, hops, seq, now)
    now = 100.0
    survivors_before = {
        d: table.lookup(d, now).next_hop
        for d in list(table._routes) if table.lookup(d, now) is not None
    }
    table.invalidate_via(broken_hop)
    for dst, nh in survivors_before.items():
        route = table.lookup(dst, now)
        if nh == broken_hop:
            assert route is None
        else:
            assert route is not None and route.next_hop == nh


@given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_expiry_exactly_at_timeout(timeout, check_offset):
    table = RoutingTable(0, active_route_timeout=timeout)
    table.update(1, 2, 1, 5, now=0.0)
    route = table.lookup(1, check_offset)
    if check_offset < timeout:
        assert route is not None
    else:
        assert route is None
