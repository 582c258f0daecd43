"""Network layer: DSR (Dynamic Source Routing) and the AODV baseline.

The paper integrates DSR with the 802.11 PSM; everything DSR-specific lives
in :mod:`repro.routing.dsr`, and :mod:`repro.routing.aodv` is footnote 1's
contrast case.  Both engines subclass
:class:`repro.routing.agent.RoutingAgent`, which holds what they share
(application entry, send buffer, discovery lifecycle, crash path), so they
differ in routing only.  :mod:`repro.routing.packets` defines DSR's
network-layer packet types, shared with the MAC and metrics layers.
"""

from repro.routing.packets import (
    DataPacket,
    PacketBase,
    RouteError,
    RouteReply,
    RouteRequest,
)

__all__ = [
    "DataPacket",
    "PacketBase",
    "RouteError",
    "RouteReply",
    "RouteRequest",
]
