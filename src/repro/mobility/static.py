"""Static node placements (tests, topology-controlled experiments)."""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.mobility.base import Arena, MobilityModel


class StaticPlacement(MobilityModel):
    """Nodes that never move.

    Construct either from explicit coordinates or with one of the topology
    helpers (:meth:`line`, :meth:`grid`, :meth:`uniform_random`), which are
    what the integration tests use to pin down multihop behaviour.
    """

    def __init__(self, positions: Sequence[Tuple[float, float]], arena: Arena) -> None:
        coords = np.asarray(positions, dtype=float)
        super().__init__(coords.shape[0], arena)
        self._coords = coords

    # Topology helpers --------------------------------------------------

    @classmethod
    def line(cls, num_nodes: int, spacing: float, arena: Optional[Arena] = None,
             y: Optional[float] = None) -> "StaticPlacement":
        """Nodes on a horizontal line, ``spacing`` meters apart."""
        width = spacing * max(num_nodes - 1, 1) + 1.0
        if arena is None:
            arena = Arena(width, max(10.0, width / 10))
        if y is None:
            y = arena.height / 2
        positions = [(i * spacing, y) for i in range(num_nodes)]
        return cls(positions, arena)

    @classmethod
    def uniform_random(cls, num_nodes: int, arena: Arena,
                       rng: random.Random) -> "StaticPlacement":
        """Uniform random placement (the paper's static scenario start)."""
        positions = [
            (rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))
            for _ in range(num_nodes)
        ]
        return cls(positions, arena)

    # MobilityModel interface -------------------------------------------

    def positions_at(self, time: float) -> NDArray[np.float64]:
        """The fixed coordinates (a defensive copy)."""
        return self._coords.copy()

__all__ = ["StaticPlacement"]
