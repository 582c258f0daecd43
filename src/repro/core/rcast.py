"""Per-node Rcast manager.

Glues the sender policy, the on-the-wire subtype encoding and the
receiver-side randomized decision together for one node, and keeps the small
amount of state the optional decision factors need (when each neighbor was
last heard).

The PSM MAC asks it two questions:

* :meth:`advertise` — sender side: what level/subtype should this packet's
  ATIM carry?
* :meth:`should_overhear` — receiver side: given an ATIM advertisement not
  addressed to us, do we stay awake to overhear?
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.constants import RCAST_BROADCAST_FLOOR
from repro.core.atim import subtype_for_level
from repro.sim.trace import NULL_TRACE, TraceSink

if TYPE_CHECKING:
    import random

    from repro.core.adaptive import AdaptivePolicy
    from repro.mac.frames import Announcement
    from repro.mobility.manager import PositionService
    from repro.phy.energy import EnergyMeter
    from repro.sim.engine import Simulator
from repro.core.factors import (
    BatteryFactor,
    CompositeProbability,
    MobilityFactor,
    NeighborCountProbability,
    SenderRecencyFactor,
)
from repro.core.policy import (
    OverhearingLevel,
    RandomizedOverhearing,
    RcastPolicy,
    SenderPolicy,
)


class RcastManager:
    """Sender- and receiver-side Rcast logic for one node."""

    def __init__(
        self,
        node_id: int,
        sim: "Simulator",
        positions: "PositionService",
        rng: "random.Random",
        sender_policy: Optional[SenderPolicy] = None,
        use_sender_recency: bool = False,
        use_mobility: bool = False,
        use_battery: bool = False,
        energy_meter: "Optional[EnergyMeter]" = None,
        randomized_broadcast: bool = False,
        adaptive: "Optional[AdaptivePolicy]" = None,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.positions = positions
        self.trace = trace
        self.sender_policy = sender_policy if sender_policy is not None else RcastPolicy()
        self.randomized_broadcast = randomized_broadcast
        #: adaptive P_R policy, or None for the paper's fixed 1/n
        self.adaptive = adaptive
        self._rng = rng
        #: node id -> time it was last heard or overheard; the PSM MAC's
        #: receive and ATIM fan-outs write it directly
        self.heard_at: Dict[int, float] = {}

        base: "Callable[[Announcement], float]"
        if adaptive is not None:
            base = adaptive
        else:
            base = NeighborCountProbability(
                partial(positions.neighbor_count, node_id))
        factors: "List[Callable[[Announcement], float]]" = []
        if use_sender_recency:
            factors.append(SenderRecencyFactor(
                now_fn=lambda: sim.now,
                last_heard_fn=self.last_heard,
            ))
        if use_mobility:
            factors.append(MobilityFactor(
                link_change_rate_fn=lambda: positions.link_change_rate(node_id),
            ))
        if use_battery:
            if energy_meter is None:
                raise ValueError("use_battery requires an energy_meter")
            factors.append(BatteryFactor(
                remaining_fraction_fn=lambda: energy_meter.remaining_fraction(sim.now),
            ))
        # Without factors the base term is P_R itself: the decider's clamp
        # is the composite's, so the wrapper would only add a call.
        self.decider = RandomizedOverhearing(
            rng, CompositeProbability(base, factors) if factors else base)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def advertise(self, packet: Any) -> Tuple[OverhearingLevel, int]:
        """Level and ATIM subtype to advertise for an outgoing packet."""
        level = self.sender_policy.level_for(packet)
        return level, subtype_for_level(level)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_epoch(self, now: float) -> None:
        """Beacon-boundary hook: advance the adaptive policy, trace it."""
        if self.adaptive is None:
            return
        fields = self.adaptive.on_epoch(now)
        if fields is not None and self.trace.enabled:
            self.trace.emit(now, "adaptive", self.node_id, "epoch", **fields)

    def last_heard(self, sender: int) -> Optional[float]:
        """Time ``sender`` was last heard, or None if never."""
        return self.heard_at.get(sender)

    def should_overhear(self, announcement: "Announcement") -> bool:
        """Resolve an advertisement not addressed to this node.

        NONE never overhears, UNCONDITIONAL always does, RANDOMIZED draws
        with the composed probability.
        """
        level = announcement.level
        if level is OverhearingLevel.NONE:
            decision = False
        elif level is OverhearingLevel.UNCONDITIONAL:
            decision = True
        else:
            decision = self.decider.decide(announcement)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "atim", self.node_id, "overhear",
                sender=announcement.sender,
                level=level.name if level is not None else None,
                decision=decision,
                p=(self.decider.probability(announcement)
                   if level is OverhearingLevel.RANDOMIZED else None),
            )
        return decision

    def should_receive_broadcast(self, announcement: "Announcement") -> bool:
        """Resolve a broadcast (e.g. RREQ) advertisement.

        Broadcasts are received by every awake node by default.  The
        broadcast-storm extension (paper Sections 3.3 and 5) randomizes the
        decision *conservatively*: stay awake with probability
        ``max(P_R, RCAST_BROADCAST_FLOOR)`` so floods still propagate.
        """
        if not self.randomized_broadcast:
            return True
        p = max(self.decider.probability(announcement), RCAST_BROADCAST_FLOOR)
        decision = self._rng.random() < p
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "atim", self.node_id, "broadcast_rx",
                sender=announcement.sender, decision=decision, p=p,
            )
        return decision


__all__ = ["RcastManager"]
