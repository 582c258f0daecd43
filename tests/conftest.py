"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Optional, Tuple

import pytest

from repro.mobility.base import Arena
from repro.network import SimulationConfig, build_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic scalar RNG."""
    return random.Random(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    """A deterministic RNG registry."""
    return RngRegistry(12345)


@pytest.fixture
def arena() -> Arena:
    """The paper's arena."""
    return Arena(1500.0, 300.0)


def line_positions(n: int, spacing: float, y: float = 50.0) -> Tuple[Tuple[float, float], ...]:
    """n nodes on a horizontal line ``spacing`` meters apart."""
    return tuple((50.0 + i * spacing, y) for i in range(n))


def line_config(
    scheme: str,
    n: int = 5,
    spacing: float = 200.0,
    sim_time: float = 20.0,
    seed: int = 3,
    **overrides,
) -> SimulationConfig:
    """Config for a static line topology with no background traffic.

    With 200 m spacing and 250 m range, only adjacent nodes can talk:
    messages between the line's ends are forced through every hop.
    """
    positions = line_positions(n, spacing)
    width = max(x for x, _ in positions) + 100.0
    params = dict(
        scheme=scheme,
        num_nodes=n,
        arena_w=width,
        arena_h=100.0,
        mobility="static",
        positions=positions,
        num_connections=0,
        sim_time=sim_time,
        seed=seed,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def build_line(scheme: str, n: int = 5, **overrides):
    """Build (not run) a line-topology network."""
    return build_network(line_config(scheme, n=n, **overrides))


def drain(network, until: Optional[float] = None) -> None:
    """Start all nodes and run the simulator (without finalizing)."""
    for node in network.nodes:
        node.start()
    network.sim.run(until=until if until is not None else network.config.sim_time)
