"""The AODV routing table.

One entry per destination: next hop, hop count, destination sequence
number, and an expiry driven by the active-route timeout — the timeout
mechanism the paper's footnote contrasts with DSR's cache-and-overhear
approach.  Entries are replaced only by fresher (higher sequence) or
equally-fresh-but-shorter routes, which is AODV's loop-freedom argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import RoutingError


@dataclass
class AodvRoute:
    """One forwarding-table entry."""

    dst: int
    next_hop: int
    hop_count: int
    dst_seq: int
    expires_at: float
    valid: bool = True


class RoutingTable:
    """Per-node AODV forwarding state."""

    def __init__(self, owner: int, active_route_timeout: float) -> None:
        if active_route_timeout <= 0:
            raise RoutingError("active_route_timeout must be positive")
        self.owner = owner
        self.timeout = active_route_timeout
        self._routes: Dict[int, AodvRoute] = {}

    def __len__(self) -> int:
        return sum(1 for r in self._routes.values() if r.valid)

    # ------------------------------------------------------------------

    def update(self, dst: int, next_hop: int, hop_count: int, dst_seq: int,
               now: float) -> bool:
        """Install/refresh a route if it is fresher or shorter.

        AODV acceptance rule: accept when no valid entry exists, when the
        offered sequence number is strictly newer, or when it is equal and
        the hop count improves.  Returns True when the table changed.
        """
        if dst == self.owner:
            raise RoutingError("cannot route to self")
        current = self._routes.get(dst)
        expires = now + self.timeout
        acceptable = (
            current is None
            or not current.valid
            or current.expires_at <= now
            or dst_seq > current.dst_seq
            or (dst_seq == current.dst_seq and hop_count < current.hop_count)
        )
        if not acceptable:
            # Refresh lifetime when the same route is confirmed.
            if (current.next_hop == next_hop
                    and current.hop_count == hop_count):
                current.expires_at = max(current.expires_at, expires)
            return False
        self._routes[dst] = AodvRoute(dst, next_hop, hop_count, dst_seq,
                                      expires, True)
        return True

    # ------------------------------------------------------------------

    def lookup(self, dst: int, now: float) -> Optional[AodvRoute]:
        """Valid, unexpired route to ``dst``; expired entries invalidate."""
        route = self._routes.get(dst)
        if route is None or not route.valid:
            return None
        if route.expires_at <= now:
            route.valid = False
            return None
        return route

    def refresh(self, dst: int, now: float) -> None:
        """Extend the lifetime of an in-use route (data traffic keeps
        active routes alive)."""
        route = self._routes.get(dst)
        if route is not None and route.valid:
            route.expires_at = max(route.expires_at, now + self.timeout)

    def last_known_seq(self, dst: int) -> int:
        """Latest sequence number ever seen for ``dst`` (-1 if none)."""
        route = self._routes.get(dst)
        return route.dst_seq if route is not None else -1

    # ------------------------------------------------------------------

    def invalidate_via(self, next_hop: int) -> List[AodvRoute]:
        """Invalidate every route through ``next_hop``; returns them."""
        broken = []
        for route in self._routes.values():
            if route.valid and route.next_hop == next_hop:
                route.valid = False
                route.dst_seq += 1  # per AODV, bump on invalidation
                broken.append(route)
        return broken

    def invalidate_dst(self, dst: int, dst_seq: int, via: int) -> bool:
        """Process one RERR item: invalidate our route to ``dst`` if it
        goes through ``via``.  Returns True when something changed."""
        route = self._routes.get(dst)
        if route is None or not route.valid or route.next_hop != via:
            return False
        route.valid = False
        route.dst_seq = max(route.dst_seq, dst_seq)
        return True


__all__ = ["AodvRoute", "RoutingTable"]
