"""The AODV protocol engine for one node.

Implements on-demand discovery with expanding-ring search, hop-by-hop data
forwarding over the routing table, and route maintenance through RERR
broadcasts — the conservative, timeout-driven design the paper's footnote
contrasts with DSR.  No promiscuous learning happens anywhere: frames
overheard by the MAC are counted (for the energy accounting the overhearing
level implies) but never feed the routing table.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, List, Optional, Set, Tuple

from repro.constants import (
    AODV_ACTIVE_ROUTE_TIMEOUT_S,
    AODV_MAX_RING_WAIT_S,
    AODV_NETWORK_TTL,
    AODV_RING_WAIT_PER_TTL_S,
    AODV_TTL_INCREMENT,
    AODV_TTL_THRESHOLD,
)
from repro.mac.frames import BROADCAST
from repro.routing.agent import Discovery, RoutingAgent
from repro.routing.aodv.packets import AodvData, AodvRerr, AodvRrep, AodvRreq
from repro.routing.aodv.table import AodvRoute, RoutingTable
from repro.routing.packets import next_uid
from repro.sim.trace import NULL_TRACE, TraceSink

if TYPE_CHECKING:
    from repro.mac.base import MacBase
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator


class AodvProtocol(RoutingAgent[AodvRoute]):
    """AODV routing agent bound to one node's MAC."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        mac: "MacBase",
        metrics: "MetricsCollector",
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        super().__init__(sim, node_id, mac, metrics, trace)
        self.table = RoutingTable(node_id, AODV_ACTIVE_ROUTE_TIMEOUT_S)
        self._seq = 0
        self._rreq_ids = itertools.count()
        self._seen_rreqs: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _route_to(self, dst: int, now: float) -> Optional[AodvRoute]:
        return self.table.lookup(dst, now)

    def _originate(self, uid: int, dst: int, route: AodvRoute,
                   payload_bytes: int, app_seq: int,
                   created_at: float) -> None:
        self._forward_data(
            AodvData(self.node_id, dst, uid, created_at, payload_bytes), route)

    def _forward_data(self, packet: AodvData, route: AodvRoute) -> None:
        self.table.refresh(packet.dst, self.sim.now)
        self.metrics.transmission("data")
        if packet.src != self.node_id:
            self.metrics.roles.record_route(
                (packet.src, self.node_id, packet.dst)
            )
        self.mac.send(packet, route.next_hop)

    def _handle_data(self, packet: AodvData, prev_hop: int) -> None:
        now = self.sim.now
        if packet.dst == self.node_id:
            self.metrics.data_delivered(packet.uid, now)
            if self.delivery_callback is not None:
                self.delivery_callback(packet)
            # Data arriving keeps the reverse route to its source alive.
            self.table.refresh(packet.src, now)
            return
        route = self.table.lookup(packet.dst, now)
        if route is None:
            # No route at a relay: drop and report, per AODV.
            self.metrics.data_dropped(packet.uid, "no_route_at_relay")
            self._broadcast_rerr([(packet.dst,
                                   self.table.last_known_seq(packet.dst))])
            return
        self._forward_data(packet.forwarded(), route)

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------

    def _send_rreq(self, state: Discovery) -> None:
        state.attempts += 1
        self._seq += 1
        rreq = AodvRreq(
            src=self.node_id, dst=state.target, uid=next_uid(),
            created_at=self.sim.now, rreq_id=next(self._rreq_ids),
            origin_seq=self._seq,
            dst_seq=self.table.last_known_seq(state.target),
            hop_count=0, ttl=state.ttl,
        )
        self.metrics.transmission("rreq")
        self.mac.send(rreq, BROADCAST)
        wait = min(AODV_RING_WAIT_PER_TTL_S * max(state.ttl, 1),
                   AODV_MAX_RING_WAIT_S)
        state.timer = self.sim.schedule(wait, self._discovery_timeout, state)

    def _discovery_timeout(self, state: Discovery) -> None:
        if state.target not in self._discoveries:
            return
        if self.table.lookup(state.target, self.sim.now) is not None:
            self._complete_discovery(state.target)
            return
        if state.ttl >= AODV_NETWORK_TTL:
            # The network-wide flood went unanswered.
            self._give_up(state)
            return
        # Expanding ring: widen and retry.
        state.ttl = (AODV_NETWORK_TTL if state.ttl >= AODV_TTL_THRESHOLD
                     else min(state.ttl + AODV_TTL_INCREMENT,
                              AODV_NETWORK_TTL))
        self._send_rreq(state)

    def _handle_rreq(self, rreq: AodvRreq, prev_hop: int) -> None:
        if rreq.src == self.node_id:
            return
        now = self.sim.now
        # Reverse route to the originator (through prev_hop).
        self.table.update(rreq.src, prev_hop, rreq.hop_count + 1,
                          rreq.origin_seq, now)
        key = (rreq.src, rreq.rreq_id)
        if key in self._seen_rreqs:
            return
        self._seen_rreqs.add(key)
        if rreq.dst == self.node_id:
            self._seq = max(self._seq, rreq.dst_seq) + 1
            self._send_rrep(origin=rreq.src, route_dst=self.node_id,
                            dst_seq=self._seq, hop_count=0)
            return
        route = self.table.lookup(rreq.dst, now)
        if route is not None and route.dst_seq >= rreq.dst_seq >= 0:
            # Intermediate reply from a fresh-enough table entry.
            self._send_rrep(origin=rreq.src, route_dst=rreq.dst,
                            dst_seq=route.dst_seq, hop_count=route.hop_count)
            return
        if rreq.ttl > 1:
            self.metrics.transmission("rreq")
            self.mac.send(rreq.rebroadcast(), BROADCAST)

    def _send_rrep(self, origin: int, route_dst: int, dst_seq: int,
                   hop_count: int) -> None:
        back = self.table.lookup(origin, self.sim.now)
        if back is None:
            return  # reverse route evaporated
        rrep = AodvRrep(
            src=self.node_id, dst=origin, uid=next_uid(),
            created_at=self.sim.now, route_dst=route_dst,
            dst_seq=dst_seq, hop_count=hop_count,
        )
        self.metrics.transmission("rrep")
        self.mac.send(rrep, back.next_hop)

    def _handle_rrep(self, rrep: AodvRrep, prev_hop: int) -> None:
        now = self.sim.now
        # Forward route to the replied destination, through prev_hop.
        self.table.update(rrep.route_dst, prev_hop, rrep.hop_count + 1,
                          rrep.dst_seq, now)
        if rrep.dst == self.node_id:
            self._complete_discovery(rrep.route_dst)
            return
        back = self.table.lookup(rrep.dst, now)
        if back is None:
            return
        forwarded = rrep.forwarded()
        self.metrics.transmission("rrep")
        self.mac.send(forwarded, back.next_hop)

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------

    def _on_link_failure(self, packet: Any, next_hop: int) -> None:
        broken = self.table.invalidate_via(next_hop)
        self.metrics.link_break()
        if broken:
            self._broadcast_rerr([(r.dst, r.dst_seq) for r in broken])
        if packet.kind == "data":
            if packet.src == self.node_id:
                # Re-buffer and rediscover at the source.
                self._await_route(packet.uid, packet.dst,
                                  packet.payload_bytes, 0, packet.created_at)
            else:
                self.metrics.data_dropped(packet.uid, "link_break")

    def _broadcast_rerr(self, unreachable: List[Tuple[int, int]]) -> None:
        rerr = AodvRerr(src=self.node_id, uid=next_uid(),
                        created_at=self.sim.now,
                        unreachable=tuple(unreachable))
        self.metrics.transmission("rerr")
        self.mac.send(rerr, BROADCAST)

    def _handle_rerr(self, rerr: AodvRerr, prev_hop: int) -> None:
        changed = []
        for dst, dst_seq in rerr.unreachable:
            if self.table.invalidate_dst(dst, dst_seq, via=prev_hop):
                changed.append((dst, dst_seq))
        if changed:
            # Propagate only what we actually invalidated (precursor-free
            # approximation of RFC 3561's RERR forwarding).
            self._broadcast_rerr(changed)

    # ------------------------------------------------------------------
    # Receive dispatch / promiscuous
    # ------------------------------------------------------------------

    def _on_receive(self, packet: Any, prev_hop: int) -> None:
        if self.down:
            return  # crashed nodes are deaf (radio is asleep anyway)
        kind = packet.kind
        if kind == "data":
            self._handle_data(packet, prev_hop)
        elif kind == "rreq":
            self._handle_rreq(packet, prev_hop)
        elif kind == "rrep":
            self._handle_rrep(packet, prev_hop)
        elif kind == "rerr":
            self._handle_rerr(packet, prev_hop)

    def _on_promiscuous(self, packet: Any, transmitter: int) -> None:
        # AODV does not learn from overheard traffic (the paper's point).
        if self.down:
            return
        self.metrics.overheard(self.node_id)

    # ------------------------------------------------------------------
    # Fault injection: cold recovery
    # ------------------------------------------------------------------

    def reset_cold(self) -> None:
        """Recover from a crash with an empty routing table.

        The sequence number is retained across the reboot (the stable-
        storage variant RFC 3561 permits); losing it would let stale RREPs
        poison fresh discoveries.
        """
        self.table = RoutingTable(self.node_id, AODV_ACTIVE_ROUTE_TIMEOUT_S)
        self._seen_rreqs.clear()
        self.down = False


__all__ = ["AodvProtocol"]
