"""Tests for Arena and the mobility interface."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.base import Arena, MobilityModel
from repro.network import SimulationConfig


def test_arena_contains_interior_and_boundary():
    arena = Arena(100.0, 50.0)
    assert arena.contains(50.0, 25.0)
    assert arena.contains(0.0, 0.0)
    assert arena.contains(100.0, 50.0)


def test_arena_rejects_outside_points():
    arena = Arena(100.0, 50.0)
    assert not arena.contains(-1.0, 25.0)
    assert not arena.contains(50.0, 51.0)


# Arena and MobilityModel trust their arguments: the config is the one
# place a bad arena or node count is rejected.
@pytest.mark.parametrize("w,h", [(0.0, 10.0), (10.0, 0.0), (-1.0, 5.0)])
def test_arena_rejects_bad_dimensions(w, h):
    with pytest.raises(ConfigurationError, match="arena_"):
        SimulationConfig(arena_w=w, arena_h=h)


def test_mobility_model_rejects_zero_nodes():
    with pytest.raises(ConfigurationError, match="num_nodes"):
        SimulationConfig(num_nodes=0, num_connections=0)


def test_mobility_model_positions_abstract():
    model = MobilityModel(3, Arena(10.0, 10.0))
    with pytest.raises(NotImplementedError):
        model.positions_at(0.0)
