"""Random waypoint mobility (the paper's model).

Each node repeats: pick a uniform destination in the arena, travel to it in a
straight line at a speed drawn uniformly from
``[WAYPOINT_MIN_SPEED_MPS, max_speed]``,
then pause for ``pause_time`` seconds.  Positions at an arbitrary time are
computed analytically by advancing each node's per-leg state lazily, so the
model costs O(legs), not O(ticks).

A pause time equal to (or exceeding) the simulated duration yields the
paper's "static scenario" (T_pause = 1125 s): nodes never complete their
first pause.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.constants import WAYPOINT_MIN_SPEED_MPS
from repro.errors import ConfigurationError
from repro.mobility.base import Arena, MobilityModel


@dataclass
class _Leg:
    """One travel-then-pause segment of a node's trajectory."""

    start_time: float
    start_x: float
    start_y: float
    dest_x: float
    dest_y: float
    speed: float
    pause: float

    @property
    def travel_time(self) -> float:
        """Seconds spent moving on this leg."""
        dist = float(np.hypot(self.dest_x - self.start_x, self.dest_y - self.start_y))
        if self.speed <= 0:
            return float("inf")
        return dist / self.speed

    @property
    def end_time(self) -> float:
        """Time at which the node leaves for its *next* destination."""
        return self.start_time + self.travel_time + self.pause

    def position_at(self, time: float) -> Tuple[float, float]:
        """Position during this leg (valid for start_time <= time <= end_time)."""
        elapsed = time - self.start_time
        travel = self.travel_time
        if elapsed >= travel:
            return (self.dest_x, self.dest_y)
        frac = elapsed / travel if travel > 0 else 1.0
        return (
            self.start_x + frac * (self.dest_x - self.start_x),
            self.start_y + frac * (self.dest_y - self.start_y),
        )


class RandomWaypoint(MobilityModel):
    """Random waypoint model with uniform initial placement.

    Parameters
    ----------
    num_nodes, arena
        Population and area.
    rng
        The ``"mobility"`` stream of a :class:`~repro.sim.rng.RngRegistry`
        (or any ``random.Random``).
    max_speed
        Speed is drawn uniformly from ``[WAYPOINT_MIN_SPEED_MPS,
        max_speed]``.  The small positive minimum avoids the well-known
        speed-decay pathology of the classic model (nodes stuck at
        near-zero speed).
    pause_time
        Seconds spent stationary at each waypoint.
    """

    def __init__(
        self,
        num_nodes: int,
        arena: Arena,
        rng: random.Random,
        max_speed: float,
        pause_time: float = 0.0,
    ) -> None:
        super().__init__(num_nodes, arena)
        self._rng = rng
        self.max_speed = max_speed
        self.pause_time = pause_time
        self._legs: List[_Leg] = [self._initial_leg() for _ in range(num_nodes)]
        self._last_query = 0.0

    # ------------------------------------------------------------------

    def _random_point(self) -> Tuple[float, float]:
        return (
            self._rng.uniform(0.0, self.arena.width),
            self._rng.uniform(0.0, self.arena.height),
        )

    def _random_speed(self) -> float:
        return self._rng.uniform(WAYPOINT_MIN_SPEED_MPS, self.max_speed)

    def _initial_leg(self) -> _Leg:
        x, y = self._random_point()
        dx, dy = self._random_point()
        return _Leg(0.0, x, y, dx, dy, self._random_speed(), self.pause_time)

    def _next_leg(self, prev: _Leg) -> _Leg:
        dx, dy = self._random_point()
        return _Leg(
            prev.end_time, prev.dest_x, prev.dest_y, dx, dy,
            self._random_speed(), self.pause_time,
        )

    def _advance(self, node: int, time: float) -> _Leg:
        leg = self._legs[node]
        while leg.end_time < time:
            leg = self._next_leg(leg)
            self._legs[node] = leg
        return leg

    # ------------------------------------------------------------------

    def positions_at(self, time: float) -> NDArray[np.float64]:
        """All node positions at ``time`` (forward-only queries)."""
        if time < self._last_query - 1e-9:
            raise ConfigurationError(
                f"RandomWaypoint queried backwards in time "
                f"({time} < {self._last_query})"
            )
        self._last_query = max(self._last_query, time)
        out = np.empty((self.num_nodes, 2), dtype=float)
        for node in range(self.num_nodes):
            leg = self._advance(node, time)
            out[node, 0], out[node, 1] = leg.position_at(time)
        return out

__all__ = ["RandomWaypoint"]
