"""What every routing agent does the same way, once.

:class:`RoutingAgent` is the base class of the DSR and AODV engines.  It
holds the parts where the two protocols must not differ, so that footnote
1's DSR-vs-AODV contrast measures routing and nothing else:

* the application entry point (:meth:`RoutingAgent.send_data`);
* the send buffer (capacity :data:`~repro.constants.SEND_BUFFER_CAPACITY`,
  oldest dropped first, entries expire after
  :data:`~repro.constants.SEND_BUFFER_TIMEOUT_S`);
* the discovery lifecycle: start once per target, complete (drain the
  buffer) or give up (drop the target's packets as ``no_route``);
* interface-queue drops and the crash path (:meth:`RoutingAgent.halt`).

A protocol subclasses it and supplies three hooks — :meth:`_route_to`,
:meth:`_originate` and :meth:`_send_rreq` — plus its receive handlers, its
discovery timeout (which calls :meth:`_give_up`) and ``reset_cold``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generic, List,
                    Optional, TypeVar)

from repro.constants import (
    AODV_TTL_START,
    SEND_BUFFER_CAPACITY,
    SEND_BUFFER_TIMEOUT_S,
)
from repro.routing.packets import next_uid
from repro.sim.trace import TraceSink

if TYPE_CHECKING:
    from repro.mac.base import MacBase
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

#: A protocol's route to a destination: DSR's source route, AODV's
#: routing-table entry.
Route = TypeVar("Route")


@dataclass
class BufferedSend:
    """An application packet waiting in the send buffer for a route."""

    uid: int
    dst: int
    payload_bytes: int
    app_seq: int
    created_at: float
    expires_at: float


@dataclass
class Discovery:
    """State of an in-progress route discovery for one target."""

    target: int
    attempts: int = 0
    #: AODV's expanding-ring TTL (DSR derives its TTL from ``attempts``)
    ttl: int = AODV_TTL_START
    timer: Optional["Event"] = None


class RoutingAgent(ABC, Generic[Route]):
    """Routing agent bound to one node's MAC."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        mac: "MacBase",
        metrics: "MetricsCollector",
        trace: TraceSink,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.mac = mac
        self.metrics = metrics
        self.trace = trace
        self._send_buffer: List[BufferedSend] = []
        self._discoveries: Dict[int, Discovery] = {}
        #: set while the node is crashed (fault injection); a down agent
        #: originates nothing and ignores anything still in flight to it
        self.down = False
        self.delivery_callback: Optional[Callable[[Any], None]] = None
        mac.set_upper(
            on_receive=self._on_receive,
            on_promiscuous=self._on_promiscuous,
            on_link_failure=self._on_link_failure,
            on_dropped=self._on_ifq_drop,
        )

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _route_to(self, dst: int, now: float) -> Optional[Route]:
        """The route to ``dst`` in use now, or None."""

    @abstractmethod
    def _originate(self, uid: int, dst: int, route: Route,
                   payload_bytes: int, app_seq: int,
                   created_at: float) -> None:
        """Send the first copy of an application packet along ``route``."""

    @abstractmethod
    def _send_rreq(self, state: Discovery) -> None:
        """Send the next route request of ``state`` and arm its timer."""

    @abstractmethod
    def _on_receive(self, packet: Any, prev_hop: int) -> None:
        """A frame addressed to this node (or broadcast) was decoded."""

    @abstractmethod
    def _on_promiscuous(self, packet: Any, transmitter: int) -> None:
        """A frame addressed to another node was overheard."""

    @abstractmethod
    def _on_link_failure(self, packet: Any, next_hop: int) -> None:
        """The MAC gave up on ``packet`` toward ``next_hop``."""

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def send_data(self, dst: int, payload_bytes: int, app_seq: int = 0) -> int:
        """Send application data to ``dst``; returns the packet uid.

        Returns ``-1`` without originating anything while the node is down
        (its application is dead too — the packet is never offered, so it
        does not count against delivery ratio).
        """
        if self.down:
            return -1
        now = self.sim.now
        uid = next_uid()
        self.metrics.data_originated(uid, self.node_id, dst, now, payload_bytes)
        if dst == self.node_id:
            self.metrics.data_delivered(uid, now)
            return uid
        route = self._route_to(dst, now)
        if route is None:
            self._await_route(uid, dst, payload_bytes, app_seq, now)
        else:
            self._originate(uid, dst, route, payload_bytes, app_seq, now)
        return uid

    def _await_route(self, uid: int, dst: int, payload_bytes: int,
                     app_seq: int, created_at: float) -> None:
        """Buffer a source packet that has no route, then discover one."""
        self._buffer_send(BufferedSend(
            uid, dst, payload_bytes, app_seq, created_at,
            self.sim.now + SEND_BUFFER_TIMEOUT_S,
        ))
        self._start_discovery(dst)

    def _on_ifq_drop(self, packet: Any) -> None:
        """The MAC's queue overflowed: a congestion drop, not a link break."""
        if packet.kind == "data":
            self.metrics.data_dropped(packet.uid, "ifq_overflow")

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------

    def _start_discovery(self, target: int) -> None:
        if target in self._discoveries:
            return
        state = Discovery(target)
        self._discoveries[target] = state
        self._send_rreq(state)

    def _complete_discovery(self, target: int) -> None:
        state = self._discoveries.pop(target, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
            # The timer's args hold the state: drop the back reference so
            # the pair is freed by refcount, not the cyclic collector.
            state.timer = None
        self._drain_send_buffer()

    def _give_up(self, state: Discovery) -> None:
        """The last request timed out: drop the target's packets."""
        del self._discoveries[state.target]
        state.timer = None
        self._drop_buffered(state.target, "no_route")

    # ------------------------------------------------------------------
    # Send buffer
    # ------------------------------------------------------------------

    def _buffer_send(self, entry: BufferedSend) -> None:
        self._sweep_buffer()
        if len(self._send_buffer) >= SEND_BUFFER_CAPACITY:
            victim = self._send_buffer.pop(0)
            self.metrics.data_dropped(victim.uid, "buffer_overflow")
        self._send_buffer.append(entry)

    def _sweep_buffer(self) -> None:
        now = self.sim.now
        expired = [e for e in self._send_buffer if e.expires_at <= now]
        if not expired:
            return
        self._send_buffer = [e for e in self._send_buffer if e.expires_at > now]
        for entry in expired:
            self.metrics.data_dropped(entry.uid, "buffer_timeout")

    def _drain_send_buffer(self) -> None:
        self._sweep_buffer()
        now = self.sim.now
        remaining: List[BufferedSend] = []
        for entry in self._send_buffer:
            route = self._route_to(entry.dst, now)
            if route is None:
                remaining.append(entry)
            else:
                self._originate(entry.uid, entry.dst, route,
                                entry.payload_bytes, entry.app_seq,
                                entry.created_at)
        self._send_buffer = remaining

    def _drop_buffered(self, target: int, reason: str) -> None:
        dropped = [e for e in self._send_buffer if e.dst == target]
        self._send_buffer = [e for e in self._send_buffer if e.dst != target]
        for entry in dropped:
            self.metrics.data_dropped(entry.uid, reason)

    # ------------------------------------------------------------------
    # Fault injection: crash
    # ------------------------------------------------------------------

    def halt(self) -> None:
        """Node crash: kill discoveries and drop the send buffer.

        Buffered application packets were already counted as originated, so
        they must be accounted as dropped (``node_down``) — silently
        forgetting them would leave their uids dangling in the delivery
        bookkeeping forever.
        """
        self.down = True
        for state in self._discoveries.values():
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
        self._discoveries.clear()
        for entry in self._send_buffer:
            self.metrics.data_dropped(entry.uid, "node_down")
        self._send_buffer.clear()


__all__ = ["BufferedSend", "Discovery", "RoutingAgent"]
