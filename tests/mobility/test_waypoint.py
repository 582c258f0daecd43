"""Tests for random waypoint kinematics."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mobility.base import Arena
from repro.mobility.waypoint import RandomWaypoint
from repro.network import SimulationConfig


def make_model(rng, pause=0.0, max_speed=10.0, n=20, arena=None):
    return RandomWaypoint(n, arena or Arena(500.0, 300.0), rng,
                          max_speed=max_speed, pause_time=pause)


def test_positions_shape(rng):
    model = make_model(rng)
    assert model.positions_at(0.0).shape == (20, 2)


def test_positions_stay_inside_arena(rng):
    arena = Arena(400.0, 200.0)
    model = make_model(rng, arena=arena)
    for t in np.linspace(0.0, 500.0, 60):
        pos = model.positions_at(float(t))
        assert (pos[:, 0] >= -1e-9).all() and (pos[:, 0] <= 400.0 + 1e-9).all()
        assert (pos[:, 1] >= -1e-9).all() and (pos[:, 1] <= 200.0 + 1e-9).all()


def test_speed_never_exceeds_max(rng):
    model = make_model(rng, max_speed=10.0)
    dt = 0.5
    prev = model.positions_at(0.0)
    for step in range(1, 100):
        cur = model.positions_at(step * dt)
        dist = np.hypot(*(cur - prev).T)
        assert (dist <= 10.0 * dt + 1e-6).all()
        prev = cur


def test_infinite_pause_means_static(rng):
    model = make_model(rng, pause=1e9)
    start = model.positions_at(0.0).copy()
    # Nodes travel their first leg and then never move again.
    leg_bound = math.hypot(500.0, 300.0) / 0.1  # diagonal at min speed
    settled = model.positions_at(leg_bound + 1.0).copy()
    later = model.positions_at(leg_bound + 1000.0)
    assert np.allclose(settled, later)
    assert not np.allclose(start, settled)  # they did move initially


def test_zero_pause_keeps_moving(rng):
    model = make_model(rng, pause=0.0)
    a = model.positions_at(100.0).copy()
    b = model.positions_at(101.0)
    assert not np.allclose(a, b)


def test_same_seed_same_trajectory():
    import random

    a = make_model(random.Random(9))
    b = make_model(random.Random(9))
    assert np.allclose(a.positions_at(123.0), b.positions_at(123.0))


def test_backwards_query_rejected(rng):
    model = make_model(rng)
    model.positions_at(100.0)
    with pytest.raises(ConfigurationError):
        model.positions_at(50.0)


@pytest.mark.parametrize("kwargs", [
    dict(max_speed=0.0),
    dict(max_speed=-1.0),
    dict(max_speed=0.05),  # below WAYPOINT_MIN_SPEED_MPS
    dict(max_speed=float("nan")),
    dict(max_speed=5.0, pause_time=-0.1),
])
def test_invalid_parameters_rejected(kwargs):
    """RandomWaypoint trusts its arguments; the config rejects them."""
    with pytest.raises(ConfigurationError):
        SimulationConfig(mobility="waypoint", **kwargs)
