"""Constant-bit-rate traffic source (the paper's workload).

Each of the paper's 20 CBR connections generates 512-byte packets at a
fixed rate between 0.2 and 2.0 packets/second.  Start times are jittered
over the first inter-packet interval so sources do not fire in lockstep.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional

from repro.routing.agent import RoutingAgent

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class CbrSource:
    """Fixed-rate application source feeding one routing agent."""

    def __init__(
        self,
        sim: "Simulator",
        dsr: RoutingAgent[Any],
        dst: int,
        rate_pps: float,
        packet_bytes: int,
        start: float = 0.0,
        stop: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.dsr = dsr
        self.dst = dst
        self.rate_pps = rate_pps
        self.packet_bytes = packet_bytes
        self.start_time = start
        self.stop_time = stop
        self._rng = rng
        self.sent = 0
        self._started = False

    @property
    def interval(self) -> float:
        """Inter-packet interval in seconds."""
        return 1.0 / self.rate_pps

    @property
    def src(self) -> int:
        """Source node id (the routing agent's node)."""
        return self.dsr.node_id

    def start(self) -> None:
        """Schedule the first packet (with jitter when an RNG is given)."""
        if self._started:
            return
        self._started = True
        jitter = self._rng.uniform(0.0, self.interval) if self._rng else 0.0
        first = max(self.start_time + jitter, self.sim.now)
        self.sim.schedule_at(first, self._emit)

    def _emit(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return
        self.dsr.send_data(self.dst, self.packet_bytes, app_seq=self.sent)
        self.sent += 1
        next_time = self.sim.now + self.interval
        if self.stop_time is None or next_time < self.stop_time:
            self.sim.schedule_at(next_time, self._emit)


__all__ = ["CbrSource"]
