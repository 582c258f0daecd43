"""Tests for static placements."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mobility.base import Arena
from repro.mobility.static import StaticPlacement
from repro.network import SimulationConfig


def static_config(*positions):
    return SimulationConfig(
        num_nodes=len(positions), num_connections=0, mobility="static",
        arena_w=10.0, arena_h=10.0, positions=positions)


def test_explicit_positions():
    arena = Arena(100.0, 100.0)
    model = StaticPlacement([(10.0, 20.0), (30.0, 40.0)], arena)
    assert model.num_nodes == 2
    assert model.positions_at(5.0).tolist() == [[10.0, 20.0], [30.0, 40.0]]
    assert model.positions_at(99.0).tolist() == [[10.0, 20.0], [30.0, 40.0]]


def test_positions_never_change():
    arena = Arena(100.0, 100.0)
    model = StaticPlacement([(1.0, 2.0)], arena)
    assert np.allclose(model.positions_at(0.0), model.positions_at(1e6))


def test_positions_at_returns_copy():
    arena = Arena(100.0, 100.0)
    model = StaticPlacement([(1.0, 2.0)], arena)
    snapshot = model.positions_at(0.0)
    snapshot[0, 0] = 999.0
    assert model.positions_at(0.0).tolist() == [[1.0, 2.0]]


# StaticPlacement trusts its arguments: the config checks the positions.
def test_position_outside_arena_rejected():
    static_config((10.0, 10.0))  # the arena's corner is inside
    for point in ((11.0, 5.0), (5.0, -1.0), (float("nan"), 5.0)):
        with pytest.raises(ConfigurationError, match="inside"):
            static_config(point)


def test_bad_shape_rejected():
    with pytest.raises(ConfigurationError, match="inside"):
        static_config((1.0, 2.0, 3.0))


def test_line_topology_spacing():
    model = StaticPlacement.line(5, spacing=100.0)
    pos = model.positions_at(0.0)
    for i in range(4):
        gap = np.hypot(*(pos[i + 1] - pos[i]))
        assert gap == pytest.approx(100.0)


def test_grid_topology():
    positions = [(c * 50.0, r * 50.0) for r in range(3) for c in range(4)]
    model = StaticPlacement(positions, Arena(151.0, 101.0))
    assert model.num_nodes == 12
    pos = model.positions_at(0.0)
    assert pos[:, 0].max() == pytest.approx(150.0)
    assert pos[:, 1].max() == pytest.approx(100.0)


def test_uniform_random_inside_arena(rng):
    arena = Arena(200.0, 100.0)
    model = StaticPlacement.uniform_random(50, arena, rng)
    pos = model.positions_at(0.0)
    assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 200.0).all()
    assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 100.0).all()
