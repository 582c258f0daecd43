"""Scenario sanity: the paper's density gives a connected multihop network."""

from collections import deque

from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.sim.engine import Simulator


def _hops_from(positions, source):
    """Hop distance from ``source`` to every node it can reach (BFS)."""
    hops = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in positions.sorted_neighbors(node):
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                frontier.append(neighbor)
    return hops


def test_paper_scenario_is_mostly_connected(rng):
    """The paper's density (100 nodes / 1500x300 / 250 m) must be connected
    almost everywhere, or its results would be delivery-limited."""
    n = 100
    model = StaticPlacement.uniform_random(n, Arena(1500.0, 300.0), rng)
    positions = PositionService(Simulator(), model, tx_range=250.0)
    reach = [_hops_from(positions, node) for node in range(n)]
    largest = max(reach, key=len)
    assert len(largest) / n > 0.95
    mean_degree = sum(positions.neighbor_count(i) for i in range(n)) / n
    assert mean_degree > 10
    # average shortest path over ordered pairs of the largest component
    pairs = len(largest) * (len(largest) - 1)
    mean_hops = sum(sum(reach[i].values()) for i in largest) / pairs
    assert mean_hops >= 2.0  # genuinely multihop
