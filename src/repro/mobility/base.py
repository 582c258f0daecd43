"""Mobility model interface and the rectangular arena."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class Arena:
    """Rectangular simulation area with corners (0, 0) and (width, height)."""

    width: float
    height: float

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        """True when (x, y) lies inside the arena (with tolerance)."""
        return -tol <= x <= self.width + tol and -tol <= y <= self.height + tol


class MobilityModel:
    """Interface: positions of ``num_nodes`` nodes as a function of time.

    Implementations must be *functional in time*: ``positions_at(t)`` may be
    called for any non-decreasing sequence of times and must be consistent
    (the same ``t`` always yields the same positions).  Querying strictly
    backwards in time is not required to work.
    """

    def __init__(self, num_nodes: int, arena: Arena) -> None:
        self.num_nodes = num_nodes
        self.arena = arena

    def positions_at(self, time: float) -> NDArray[np.float64]:
        """Return an ``(num_nodes, 2)`` float array of positions at ``time``."""
        raise NotImplementedError


__all__ = ["Arena", "MobilityModel"]
