"""Network-layer packet types for DSR.

Every unicast packet that physically travels hop-by-hop carries a
``trip_route`` (the exact node sequence it follows) and a ``trip_index``
(position of the node that most recently transmitted it).  Packets are
immutable: forwarding produces a fresh copy via :meth:`PacketBase.advance`,
so frames in flight and overhearing observers never see a packet mutate
under them.

Sizes follow the DSR internet-draft option formats over a 20-byte IP
header: a source-route option costs ``2 + 4n`` bytes for *n* addresses,
RREQ/RREP options ``6 + 4n``, a RERR option a fixed 14 bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import RoutingError

#: IP header size in bytes.
IP_HEADER_BYTES = 20
#: DSR fixed header in bytes.
DSR_HEADER_BYTES = 4

_uid_counter = itertools.count()


def next_uid() -> int:
    """Globally unique packet identifier (metrics correlation)."""
    return next(_uid_counter)


def reset_uid_counter() -> None:
    """Restart packet uids at 0.

    Absolute uids appear in trace output, so
    :func:`repro.network.build_network` resets the counter per build to
    keep same-seed trace streams byte-identical within one process.
    """
    global _uid_counter
    _uid_counter = itertools.count()


def _check_trip(trip_route: Tuple[int, ...], trip_index: int) -> None:
    if len(trip_route) < 2:
        raise RoutingError(f"trip route too short: {trip_route}")
    if not 0 <= trip_index < len(trip_route) - 1:
        raise RoutingError(
            f"trip index {trip_index} out of range for route {trip_route}"
        )
    if len(set(trip_route)) != len(trip_route):
        raise RoutingError(f"trip route contains a loop: {trip_route}")


@dataclass(frozen=True)
class PacketBase:
    """Common fields for every DSR packet."""

    src: int                      # network-layer originator
    dst: int                      # network-layer final destination
    uid: int                      # unique id (metrics correlation)
    created_at: float             # origination time (virtual seconds)
    trip_route: Tuple[int, ...]   # physical path this packet follows
    trip_index: int               # index of the current transmitter

    kind = "base"

    def __post_init__(self) -> None:
        _check_trip(self.trip_route, self.trip_index)

    @property
    def next_hop(self) -> int:
        """Node the packet must be transmitted to next."""
        return self.trip_route[self.trip_index + 1]

    @cached_property
    def splice_tails(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The trip route onward from the current transmitter, and from it
        back to the source: the two routes an overhearer splices itself
        onto.  Computed once per packet copy, for all its overhearers."""
        route = self.trip_route
        t_idx = self.trip_index
        return route[t_idx:], route[t_idx::-1]

    def advance(self) -> "PacketBase":
        """Copy of the packet as forwarded by the next hop.

        Each packet class builds its copy with a direct constructor call,
        which re-runs its checks: ``dataclasses.replace`` would re-read the
        field table on every hop.
        """
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (headers + options + payload)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DataPacket(PacketBase):
    """An application data packet carrying its full source route."""

    payload_bytes: int = 0
    app_seq: int = 0
    salvage_count: int = 0

    kind = "data"

    @property
    def route(self) -> Tuple[int, ...]:
        """The source route (synonym for the trip route)."""
        return self.trip_route

    @property
    def size_bytes(self) -> int:
        """IP + DSR headers + source-route option + payload."""
        source_route_opt = 2 + 4 * len(self.trip_route)
        return (IP_HEADER_BYTES + DSR_HEADER_BYTES + source_route_opt
                + self.payload_bytes)

    def advance(self) -> "DataPacket":
        """Copy of the packet as forwarded by the next hop."""
        return DataPacket(
            src=self.src, dst=self.dst, uid=self.uid,
            created_at=self.created_at, trip_route=self.trip_route,
            trip_index=self.trip_index + 1,
            payload_bytes=self.payload_bytes, app_seq=self.app_seq,
            salvage_count=self.salvage_count,
        )

    def salvaged(self, new_route: Tuple[int, ...]) -> "DataPacket":
        """Copy re-routed from the salvaging node along ``new_route``."""
        return DataPacket(
            src=self.src, dst=self.dst, uid=self.uid,
            created_at=self.created_at, trip_route=new_route, trip_index=0,
            payload_bytes=self.payload_bytes, app_seq=self.app_seq,
            salvage_count=self.salvage_count + 1,
        )


@dataclass(frozen=True)
class RouteRequest:
    """A broadcast route request (RREQ).

    ``route_record`` accumulates the nodes traversed so far, starting with
    the originator.  RREQs are broadcast, so they carry no trip route.
    """

    src: int                     # originator looking for a route
    dst: int                     # target of the discovery
    uid: int
    created_at: float
    request_id: int              # (src, request_id) dedups the flood
    ttl: int
    route_record: Tuple[int, ...]

    kind = "rreq"

    def __post_init__(self) -> None:
        if not self.route_record or self.route_record[0] != self.src:
            raise RoutingError(
                f"route record must start at the originator: {self.route_record}"
            )
        if len(set(self.route_record)) != len(self.route_record):
            raise RoutingError(f"route record has a loop: {self.route_record}")
        if self.ttl < 0:
            raise RoutingError(f"negative TTL: {self.ttl}")

    @property
    def target(self) -> int:
        """The destination this discovery is looking for."""
        return self.dst

    def extended(self, node: int) -> "RouteRequest":
        """Copy rebroadcast by ``node``: record extended, TTL decremented."""
        if node in self.route_record:
            raise RoutingError(f"node {node} already in record {self.route_record}")
        return RouteRequest(
            src=self.src, dst=self.dst, uid=self.uid,
            created_at=self.created_at, request_id=self.request_id,
            ttl=self.ttl - 1, route_record=self.route_record + (node,),
        )

    @property
    def size_bytes(self) -> int:
        """IP + DSR headers + RREQ option with the route record."""
        return IP_HEADER_BYTES + DSR_HEADER_BYTES + 6 + 4 * len(self.route_record)


@dataclass(frozen=True)
class RouteReply(PacketBase):
    """A route reply (RREP) carrying a discovered route.

    ``path`` is the discovered forward route (originator ... target); the
    reply itself travels along ``trip_route`` (normally the reversed prefix
    of the discovery path from the replier back to the originator).
    """

    path: Tuple[int, ...] = ()
    #: discovery this reply answers, as (originator, request_id); used for
    #: reply suppression.  (-1, -1) for gratuitous replies.
    request_key: Tuple[int, int] = (-1, -1)

    kind = "rrep"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.path) < 2:
            raise RoutingError(f"RREP path too short: {self.path}")
        if len(set(self.path)) != len(self.path):
            raise RoutingError(f"RREP path has a loop: {self.path}")

    def advance(self) -> "RouteReply":
        """Copy of the packet as forwarded by the next hop."""
        return RouteReply(
            src=self.src, dst=self.dst, uid=self.uid,
            created_at=self.created_at, trip_route=self.trip_route,
            trip_index=self.trip_index + 1, path=self.path,
            request_key=self.request_key,
        )

    @property
    def size_bytes(self) -> int:
        """IP + DSR headers + RREP option + its own source route."""
        rrep_opt = 6 + 4 * len(self.path)
        source_route_opt = 2 + 4 * len(self.trip_route)
        return IP_HEADER_BYTES + DSR_HEADER_BYTES + rrep_opt + source_route_opt


@dataclass(frozen=True)
class RouteError(PacketBase):
    """A route error (RERR) reporting the broken link ``broken``."""

    broken: Tuple[int, int] = (0, 0)

    kind = "rerr"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.broken) != 2 or self.broken[0] == self.broken[1]:
            raise RoutingError(f"malformed broken link: {self.broken}")

    def advance(self) -> "RouteError":
        """Copy of the packet as forwarded by the next hop."""
        return RouteError(
            src=self.src, dst=self.dst, uid=self.uid,
            created_at=self.created_at, trip_route=self.trip_route,
            trip_index=self.trip_index + 1, broken=self.broken,
        )

    @property
    def size_bytes(self) -> int:
        """IP + DSR headers + RERR option + its own source route."""
        source_route_opt = 2 + 4 * len(self.trip_route)
        return IP_HEADER_BYTES + DSR_HEADER_BYTES + 14 + source_route_opt


__all__ = [
    "IP_HEADER_BYTES",
    "DSR_HEADER_BYTES",
    "DataPacket",
    "PacketBase",
    "RouteError",
    "RouteReply",
    "RouteRequest",
    "next_uid",
    "reset_uid_counter",
]
