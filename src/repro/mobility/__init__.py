"""Node mobility models and the position/neighborhood service.

The paper uses the random waypoint model (max speed 20 m/s, pause time 0 to
1125 s) in a 1500 x 300 m arena.  :class:`~repro.mobility.waypoint.RandomWaypoint`
implements it analytically — a node's position at any time is computed from
its current leg, with no per-tick integration.
:class:`~repro.mobility.static.StaticPlacement` covers the static scenarios
and hand-placed test topologies.
:class:`~repro.mobility.manager.PositionService` layers vectorized neighbor
queries on top of either model.
"""

from repro.mobility.base import Arena, MobilityModel
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.mobility.waypoint import RandomWaypoint

__all__ = [
    "Arena",
    "MobilityModel",
    "PositionService",
    "RandomWaypoint",
    "StaticPlacement",
]
