"""Tests for the position service (cached positions, neighbor queries)."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.mobility.waypoint import RandomWaypoint
from repro.network import SimulationConfig
from repro.sim.engine import Simulator


def line_service(sim, spacing=100.0, n=4, tx_range=150.0, cs_range=300.0):
    arena = Arena(spacing * n + 100.0, 100.0)
    positions = [(10.0 + i * spacing, 50.0) for i in range(n)]
    model = StaticPlacement(positions, arena)
    return PositionService(sim, model, tx_range=tx_range, cs_range=cs_range)


def test_neighbors_symmetric(sim):
    service = line_service(sim)
    for a in range(4):
        for b in service.neighbors(a):
            assert a in service.neighbors(b)


def test_neighbors_by_distance(sim):
    service = line_service(sim, spacing=100.0, tx_range=150.0)
    # 100 m spacing, 150 m range: only adjacent nodes are neighbors.
    assert service.neighbors(0) == frozenset({1})
    assert service.neighbors(1) == frozenset({0, 2})
    assert service.neighbor_count(1) == 2


def test_cs_neighbors_superset_of_neighbors(sim):
    service = line_service(sim, cs_range=350.0)
    for node in range(4):
        assert service.neighbors(node) <= service.cs_neighbors(node)


def test_in_range_and_distance(sim):
    service = line_service(sim)
    assert service.in_range(0, 1)
    assert not service.in_range(0, 3)
    assert service.distance(0, 2) == pytest.approx(200.0)


def test_self_not_a_neighbor(sim):
    service = line_service(sim)
    for node in range(4):
        assert node not in service.neighbors(node)


def test_positions_refresh_with_time(sim, rng):
    arena = Arena(500.0, 100.0)
    model = RandomWaypoint(5, arena, rng, max_speed=10.0)
    service = PositionService(sim, model, tx_range=100.0, cs_range=200.0)
    before = service.positions().copy()
    sim.schedule(30.0, lambda: None)
    sim.run()
    after = service.positions()
    assert (before != after).any()


def test_snapshot_cached_within_refresh_period(sim, rng):
    arena = Arena(500.0, 100.0)
    model = RandomWaypoint(5, arena, rng, max_speed=10.0)
    service = PositionService(sim, model, tx_range=100.0, cs_range=200.0)
    first = service.positions()
    sim.schedule(0.5, lambda: None)  # inside the 1 s NEIGHBOR_REFRESH_S
    sim.run()
    second = service.positions()
    assert first is second  # same cached array object


def test_link_changes_accumulate(sim, rng):
    arena = Arena(300.0, 100.0)
    model = RandomWaypoint(8, arena, rng, max_speed=20.0)
    service = PositionService(sim, model, tx_range=80.0, cs_range=160.0)
    for t in range(1, 60):
        sim.schedule_at(float(t), service.positions)
    sim.run()
    assert service.link_changes.sum() > 0
    assert all(service.link_change_rate(n) >= 0.0 for n in range(8))


def test_static_network_has_no_link_changes(sim):
    service = line_service(sim)
    for t in range(1, 20):
        sim.schedule_at(float(t), service.positions)
    sim.run()
    assert service.link_changes.sum() == 0


# PositionService trusts its ranges: the config is the one place they
# are checked.
def test_cs_range_must_cover_tx_range():
    SimulationConfig(tx_range=100.0, cs_range=100.0)
    with pytest.raises(ConfigurationError, match="cs_range"):
        SimulationConfig(tx_range=100.0, cs_range=50.0)


@pytest.mark.parametrize("kwargs", [
    dict(tx_range=0.0),
    dict(tx_range=-5.0),
])
def test_invalid_parameters(kwargs):
    with pytest.raises(ConfigurationError, match="tx_range"):
        SimulationConfig(**kwargs)


# --- Interned snapshot identity (hot-path contract) ------------------------

class _StepModel(StaticPlacement):
    """Static until ``switch_at``; node 0 jumps far away afterwards."""

    def __init__(self, positions, arena, switch_at):
        super().__init__(positions, arena)
        self.switch_at = switch_at

    def positions_at(self, time):
        pos = super().positions_at(time).copy()
        if time >= self.switch_at:
            pos[0] = (self.arena.width - 1.0, self.arena.height - 1.0)
        return pos


def _step_service(sim, switch_at=5.0):
    arena = Arena(1000.0, 200.0)
    # 110 m spacing: adjacent nodes are tx neighbors (150 m), and
    # node 0 is outside node 3's cs range (330 m > 300 m).
    positions = [(10.0 + i * 110.0, 50.0) for i in range(4)]
    model = _StepModel(positions, arena, switch_at)
    return PositionService(sim, model, tx_range=150.0, cs_range=300.0)


def test_neighbor_objects_interned_between_refreshes(sim):
    service = _step_service(sim)
    nbr = service.neighbors(1)
    cs = service.cs_neighbors(1)
    tup = service.sorted_neighbors(1)
    # Repeated queries within the refresh period: the same objects.
    assert service.neighbors(1) is nbr
    assert service.cs_neighbors(1) is cs
    assert service.sorted_neighbors(1) is tup


def test_neighbor_objects_survive_unchanged_refresh(sim):
    service = _step_service(sim, switch_at=100.0)
    nbr = service.neighbors(1)
    cs = service.cs_neighbors(1)
    tup = service.sorted_neighbors(1)
    # Cross several refresh periods with an unchanged topology: a refresh
    # that leaves membership identical must keep the interned objects.
    sim.schedule(3.5, lambda: None)
    sim.run()
    assert service.neighbors(1) is nbr
    assert service.cs_neighbors(1) is cs
    assert service.sorted_neighbors(1) is tup


def test_neighbor_objects_replaced_after_topology_change(sim):
    service = _step_service(sim, switch_at=5.0)
    nbr = service.neighbors(1)
    tup = service.sorted_neighbors(1)
    cs_far = service.cs_neighbors(3)
    before_changes = int(service.link_changes.sum())
    # Node 0 jumps across the arena at t=5: node 1 loses a tx neighbor.
    sim.schedule(6.0, lambda: None)
    sim.run()
    assert service.neighbors(1) is not nbr
    assert service.sorted_neighbors(1) is not tup
    assert 0 not in service.neighbors(1)
    assert int(service.link_changes.sum()) > before_changes
    # Node 3 never had node 0 in cs range; its interned set is untouched.
    assert service.cs_neighbors(3) is cs_far
