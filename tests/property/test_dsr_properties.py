"""Property-based tests over DSR behaviour on random line/star topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.routing.conftest import DsrRig


@given(n=st.integers(min_value=2, max_value=7))
@settings(max_examples=8, deadline=None)
def test_line_delivery_any_length(n):
    """Delivery works over any line length within the network TTL."""
    rig = DsrRig([(10.0 + i * 100.0, 50.0) for i in range(n)])
    rig.dsr[0].send_data(n - 1, 128)
    rig.run(until=5.0 + n)
    assert len(rig.delivered) == 1
    assert rig.delivered[0].trip_route == tuple(range(n))


@given(n=st.integers(min_value=3, max_value=7),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_star_all_leaves_reachable(n, seed):
    """Hub-and-spoke: the hub reaches every leaf, leaves reach each other."""
    import math
    import random

    rng = random.Random(seed)
    positions = [(300.0, 300.0)]  # hub
    for i in range(n):
        angle = 2 * math.pi * i / n
        positions.append((300.0 + 120.0 * math.cos(angle),
                          300.0 + 120.0 * math.sin(angle)))
    rig = DsrRig(positions, tx_range=150.0, cs_range=300.0)
    a = rng.randrange(1, n + 1)
    b = rng.randrange(1, n + 1)
    if a == b:
        b = 1 + (b % n)
    rig.dsr[a].send_data(b, 64)
    rig.run(until=8.0)
    assert len(rig.delivered) == 1
    route = rig.delivered[0].trip_route
    # Loop-free and within the star's diameter.
    assert len(set(route)) == len(route)
    assert len(route) <= 3
