"""The DSR protocol engine for one node.

Implements the classic DSR feature set the paper builds on:

* **Route discovery** — RREQ flooding with duplicate suppression and
  expanding-ring search (a TTL-1 non-propagating ring first), RREPs from
  the target (several per discovery, offering alternative routes) and from
  intermediate nodes' caches.
* **Source-routed forwarding** — every data packet carries its complete
  route; intermediate nodes learn from the packets they forward.
* **Route maintenance** — MAC-layer retry exhaustion marks the link broken;
  the detecting node salvages the packet from its own cache when it can and
  sends a RERR back to the source, which every recipient (and, under Rcast,
  every *unconditional* overhearer) uses to purge the broken link.
* **Promiscuous route learning** — the tap: an overheard data packet or
  RREP lets the listener splice itself to the transmitter (which it
  provably can hear) and cache routes toward both endpoints.  This is the
  mechanism whose energy price under PSM the paper quantifies and Rcast
  randomizes.

Every path this agent learns is a slice of a packet's route, with this
node prepended only when it is not on that route.  Packet constructors
reject looping routes (trip routes, RREP paths and RREQ route records),
and ``advance``/``salvaged``/``extended`` build their copies through the
same constructors, so learned paths are loop-free by construction.  Each
learn site — the tap's splices, RREQ reverse paths, forwarding and RREP
paths — therefore makes one direct :meth:`RouteCache.add_path` call per
path with ``validate=False`` (positionally at the tap's splices, DSR's
busiest call site), looking ``add_path`` up on the cache at call time.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from repro.constants import (
    DSR_DISCOVERY_MAX_BACKOFF_S,
    DSR_DISCOVERY_MAX_RETRIES,
    DSR_DISCOVERY_TIMEOUT_S,
    DSR_MAX_REPLIES_PER_REQUEST,
    DSR_MAX_SALVAGE_COUNT,
    DSR_NETWORK_TTL,
    DSR_NONPROP_TIMEOUT_S,
    DSR_NONPROP_TTL,
)
from repro.mac.frames import BROADCAST
from repro.routing.agent import Discovery, RoutingAgent
from repro.routing.dsr.cache import RouteCache
from repro.routing.packets import (
    DataPacket,
    PacketBase,
    RouteError,
    RouteReply,
    RouteRequest,
    next_uid,
)
from repro.sim.trace import NULL_TRACE, TraceSink

if TYPE_CHECKING:
    from repro.mac.base import MacBase
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator


class DsrProtocol(RoutingAgent[Tuple[int, ...]]):
    """DSR routing agent bound to one node's MAC."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        mac: "MacBase",
        metrics: "MetricsCollector",
        rng: random.Random,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        super().__init__(sim, node_id, mac, metrics, trace)
        #: the node's ``dsr:<id>`` stream: cache-reply jitter draws
        self._rng = rng
        self.cache = RouteCache(node_id)
        self._seen_rreqs: Set[Tuple[int, int]] = set()
        self._replies_sent: Dict[Tuple[int, int], int] = {}
        #: discoveries already answered (by us or, to our knowledge, by
        #: someone whose RREP we carried or overheard) — cache-reply
        #: suppression, without which dense networks drown in RREPs.
        self._answered: Set[Tuple[int, int]] = set()
        self._request_ids = itertools.count()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _route_to(self, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        return self.cache.route_to(dst, now)

    def _originate(self, uid: int, dst: int, route: Tuple[int, ...],
                   payload_bytes: int, app_seq: int,
                   created_at: float) -> None:
        packet = DataPacket(
            src=self.node_id, dst=dst, uid=uid, created_at=created_at,
            trip_route=route, trip_index=0,
            payload_bytes=payload_bytes, app_seq=app_seq,
        )
        self.metrics.route_used(route)
        self._transmit(packet)

    def _transmit(self, packet: PacketBase) -> None:
        """Hand a unicast packet to the MAC toward its next hop."""
        self.metrics.transmission(packet.kind)
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "dsr", self.node_id, "tx",
                            kind=packet.kind, uid=packet.uid,
                            next_hop=packet.next_hop)
        self.mac.send(packet, packet.next_hop)

    def _broadcast(self, rreq: RouteRequest) -> None:
        self.metrics.transmission(rreq.kind)
        self.mac.send(rreq, BROADCAST)

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------

    def _on_receive(self, packet: Any, prev_hop: int) -> None:
        if self.down:
            return  # belt over the radio's suspenders: crashed nodes are deaf
        kind = packet.kind
        if kind == "rreq":
            self._handle_rreq(packet)
        elif kind == "data":
            self._handle_data(packet)
        elif kind == "rrep":
            self._handle_rrep(packet)
        elif kind == "rerr":
            self._handle_rerr(packet)

    def _my_trip_index(self, packet: PacketBase) -> Optional[int]:
        """This node's position on the packet's trip, or None if misrouted."""
        idx = packet.trip_index + 1
        if idx < len(packet.trip_route) and packet.trip_route[idx] == self.node_id:
            return idx
        return None

    def _handle_data(self, packet: DataPacket) -> None:
        idx = self._my_trip_index(packet)
        if idx is None:
            return
        if idx == len(packet.trip_route) - 1:
            # Final destination.
            self.metrics.data_delivered(packet.uid, self.sim.now)
            if self.delivery_callback is not None:
                self.delivery_callback(packet)
            return
        self._learn_along(packet.trip_route, idx)
        self._transmit(packet.advance())

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------

    def _send_rreq(self, state: Discovery) -> None:
        state.attempts += 1
        # Expanding-ring search: a non-propagating ring first, then
        # network-wide floods with exponential backoff.
        use_ring = state.attempts == 1
        ttl = DSR_NONPROP_TTL if use_ring else DSR_NETWORK_TTL
        rreq = RouteRequest(
            src=self.node_id, dst=state.target, uid=next_uid(),
            created_at=self.sim.now, request_id=next(self._request_ids),
            ttl=ttl, route_record=(self.node_id,),
        )
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "dsr", self.node_id, "rreq",
                            target=state.target, attempt=state.attempts,
                            ttl=ttl, request_id=rreq.request_id)
        self._broadcast(rreq)
        if use_ring:
            timeout = DSR_NONPROP_TIMEOUT_S
        else:
            timeout = min(DSR_DISCOVERY_TIMEOUT_S * 2 ** (state.attempts - 2),
                          DSR_DISCOVERY_MAX_BACKOFF_S)
        state.timer = self.sim.schedule(timeout, self._discovery_timeout, state)

    def _discovery_timeout(self, state: Discovery) -> None:
        if state.target not in self._discoveries:
            return  # already completed
        if self.cache.has_route_to(state.target):
            self._complete_discovery(state.target)
            return
        if state.attempts >= DSR_DISCOVERY_MAX_RETRIES:
            if self.trace.enabled:
                self.trace.emit(self.sim.now, "dsr", self.node_id,
                                "discovery_failed", target=state.target,
                                attempts=state.attempts)
            self._give_up(state)
            return
        self._send_rreq(state)

    def _handle_rreq(self, rreq: RouteRequest) -> None:
        if rreq.src == self.node_id or self.node_id in rreq.route_record:
            return
        now = self.sim.now
        # Everyone hearing a RREQ learns the reverse path to its originator.
        reverse = (self.node_id,) + rreq.route_record[::-1]
        self.cache.add_path(reverse, now, "rreq", validate=False)
        if self.trace.enabled:
            self._trace_cache_add(reverse, "rreq")

        key = (rreq.src, rreq.request_id)
        if self.node_id == rreq.dst:
            # The target answers every arriving copy (alternative routes),
            # up to a fixed cap.
            sent = self._replies_sent.get(key, 0)
            if sent < DSR_MAX_REPLIES_PER_REQUEST:
                self._replies_sent[key] = sent + 1
                path = rreq.route_record + (self.node_id,)
                self._send_rrep(path, reply_from=self.node_id, request_key=key)
            return
        if key in self._seen_rreqs:
            return
        self._seen_rreqs.add(key)
        if key not in self._answered:
            cached = self.cache.route_to(rreq.dst, now)
            if cached is not None:
                combined = rreq.route_record + (self.node_id,) + cached[1:]
                if len(set(combined)) == len(combined):
                    # Jitter the reply proportionally to the offered route
                    # length, then re-check suppression: shorter offers win
                    # and one overheard RREP silences the rest of the crowd.
                    delay = self._rng.uniform(0.0, 0.01) * len(combined)
                    self.sim.schedule(delay, self._cache_reply, key, combined)
                    return
        if rreq.ttl > 1:
            self._broadcast(rreq.extended(self.node_id))

    def _cache_reply(self, key: Tuple[int, int], combined: Tuple[int, ...]) -> None:
        """Deferred cache reply; suppressed if someone answered meanwhile."""
        if self.down or key in self._answered:
            return
        self._answered.add(key)
        self._send_rrep(combined, reply_from=self.node_id, request_key=key)

    def _send_rrep(self, path: Tuple[int, ...], reply_from: int,
                   request_key: Tuple[int, int] = (-1, -1)) -> None:
        """Send a RREP for discovered ``path`` back to its originator."""
        origin = path[0]
        idx = path.index(reply_from)
        back = tuple(reversed(path[: idx + 1]))
        if len(back) < 2:
            return  # replier is the originator itself; nothing to send
        rrep = RouteReply(
            src=reply_from, dst=origin, uid=next_uid(), created_at=self.sim.now,
            trip_route=back, trip_index=0, path=path, request_key=request_key,
        )
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "dsr", self.node_id, "rrep",
                            origin=origin, reply_from=reply_from,
                            hops=len(path) - 1)
        self._transmit(rrep)

    def _note_answered(self, rrep: RouteReply) -> None:
        if rrep.request_key != (-1, -1):
            self._answered.add(rrep.request_key)

    def _handle_rrep(self, rrep: RouteReply) -> None:
        idx = self._my_trip_index(rrep)
        if idx is None:
            return
        self._note_answered(rrep)
        self._learn_from_path(rrep.path)
        if idx == len(rrep.trip_route) - 1:
            # Originator: the discovery is complete.
            self._complete_discovery(rrep.path[-1])
            return
        self._transmit(rrep.advance())

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------

    def _on_link_failure(self, packet: PacketBase, next_hop: int) -> None:
        self.cache.remove_link(self.node_id, next_hop)
        if packet.kind == "data":
            self._maintain_data(packet, next_hop)
        # Failed RREPs/RERRs are silently dropped, as in classic DSR.

    def _maintain_data(self, packet: DataPacket, next_hop: int) -> None:
        broken = (self.node_id, next_hop)
        if self.node_id == packet.src:
            # Source-local failure: re-buffer and rediscover.
            self.metrics.link_break()
            self._await_route(packet.uid, packet.dst, packet.payload_bytes,
                              packet.app_seq, packet.created_at)
            return
        self.metrics.link_break()
        self._send_rerr(packet, broken)
        if packet.salvage_count < DSR_MAX_SALVAGE_COUNT:
            alt = self.cache.route_to(packet.dst, self.sim.now)
            if alt is not None:
                self.metrics.route_used(alt)
                if self.trace.enabled:
                    self.trace.emit(self.sim.now, "dsr", self.node_id,
                                    "salvage", uid=packet.uid,
                                    dst=packet.dst, hops=len(alt) - 1)
                self._transmit(packet.salvaged(alt))
                return
        self.metrics.data_dropped(packet.uid, "link_break")

    def _send_rerr(self, packet: DataPacket, broken: Tuple[int, int]) -> None:
        my_idx = packet.trip_route.index(self.node_id)
        back = tuple(reversed(packet.trip_route[: my_idx + 1]))
        if len(back) < 2:
            return
        rerr = RouteError(
            src=self.node_id, dst=packet.src, uid=next_uid(),
            created_at=self.sim.now, trip_route=back, trip_index=0,
            broken=broken,
        )
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "dsr", self.node_id, "rerr",
                            broken_from=broken[0], broken_to=broken[1],
                            source=packet.src)
        self._transmit(rerr)

    def _handle_rerr(self, rerr: RouteError) -> None:
        idx = self._my_trip_index(rerr)
        if idx is None:
            return
        self.cache.remove_link(*rerr.broken)
        if idx == len(rerr.trip_route) - 1:
            return  # reached the data source
        self._transmit(rerr.advance())

    # ------------------------------------------------------------------
    # Promiscuous operation (overhearing)
    # ------------------------------------------------------------------

    def _on_promiscuous(self, packet: Any, transmitter: int) -> None:
        if self.down:
            return
        me = self.node_id
        self.metrics.overheard(me)
        kind = packet.kind
        if kind == "rerr":
            # Unconditional invalidation: purge the broken link immediately.
            self.cache.remove_link(*packet.broken)
            return
        if kind != "data" and kind != "rrep":
            return
        # Every overhearer of one frame shares the packet's two route
        # slices (cut once per packet copy).
        if me not in packet.trip_route:
            self._learn_by_splicing(*packet.splice_tails)
        if kind == "rrep":
            self._note_answered(packet)
            path = packet.path
            if transmitter in path and me not in path:
                t_idx = path.index(transmitter)
                self._learn_by_splicing(path[t_idx:], path[t_idx::-1])

    def _learn_by_splicing(self, onward: Tuple[int, ...],
                           back: Tuple[int, ...]) -> None:
        """Cache routes built by splicing ourselves onto an overheard route.

        We heard ``onward[0]`` (which is ``back[0]``) transmit, so a
        one-hop link to it exists; ``onward`` leads from it to the route's
        destination and ``back`` to the source.  Both spliced paths have
        at least two nodes and no loop: the route is a trip route or an
        RREP path, which the packet constructors reject when looping, and
        callers splice this node on only when it is not on the route.
        """
        me = self.node_id
        now = self.sim.now
        onward = (me,) + onward
        back = (me,) + back
        self.cache.add_path(onward, now, "overhear", False)
        self.cache.add_path(back, now, "overhear", False)
        if self.trace.enabled:
            self._trace_cache_add(onward, "overhear")
            self._trace_cache_add(back, "overhear")

    # ------------------------------------------------------------------
    # Cache-learning helpers
    # ------------------------------------------------------------------

    def _trace_cache_add(self, path: Tuple[int, ...], source: str) -> None:
        """Emit the ``cache_add`` record for a learned path (traced runs)."""
        self.trace.emit(self.sim.now, "dsr", self.node_id, "cache_add",
                        dst=path[-1], hops=len(path) - 1, source=source)

    def _learn_along(self, route: Tuple[int, ...], my_idx: int,
                     source: str = "forward") -> None:
        """Learn the suffix and reversed prefix of a route we sit on."""
        now = self.sim.now
        for path in (route[my_idx:], route[my_idx::-1]):
            if len(path) >= 2:
                self.cache.add_path(path, now, source, validate=False)
                if self.trace.enabled:
                    self._trace_cache_add(path, source)

    def _learn_from_path(self, path: Tuple[int, ...]) -> None:
        """Learn both directions of a discovered path we appear on.

        RREP-borne routes are core protocol output, not passive learning.
        """
        if self.node_id not in path:
            return
        self._learn_along(path, path.index(self.node_id), source="rrep")

    # ------------------------------------------------------------------
    # Fault injection: cold recovery
    # ------------------------------------------------------------------

    def reset_cold(self) -> None:
        """Recover from a crash with no retained routing state.

        A rebooted node remembers nothing: the route cache, duplicate-RREQ
        filter and reply-suppression sets all start empty, exactly like a
        node that just joined the network.
        """
        self.cache.clear()
        self._seen_rreqs.clear()
        self._replies_sent.clear()
        self._answered.clear()
        self.down = False


__all__ = ["DsrProtocol"]
