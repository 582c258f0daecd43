"""SPAN: coordinator-based power saving (Chen, Jamieson, Morris,
Balakrishnan — MobiCom 2001), the other multihop-PSM scheme the paper's
related-work section discusses.

SPAN elects a connected backbone of *coordinators* that stay in AM; every
other node runs the plain PSM.  The paper criticizes it on two grounds this
implementation lets us measure: it "usually results in more AM nodes than
necessary and degenerates to [an] all AM-node situation when the network is
relatively sparse", and it assumes routing is handled by a scheme that can
exploit the backbone.

Implementation notes (simplifications, documented per DESIGN.md):

* The announcement/HELLO machinery SPAN uses to learn 2-hop neighborhoods
  and coordinator status is replaced by direct queries against the
  simulator's position service — the same information, without modelling
  the HELLO traffic (which would only *add* energy to SPAN).
* The election rule is Chen et al.'s: a node volunteers when two of its
  neighbors cannot reach each other directly or via one or two
  coordinators.  Volunteering is staggered by a per-node random backoff
  weighted by remaining energy and utility (how many pairs the node would
  connect), which provides the paper's rotation/fairness behaviour.
* A coordinator withdraws when every pair of its neighbors remains
  connected via other coordinators (checked with a grace period so the
  backbone does not oscillate).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.constants import SPAN_ELECTION_PERIOD_S, SPAN_WITHDRAW_GRACE_S
from repro.mac.power import PowerManager, PowerMode

if TYPE_CHECKING:
    from repro.mobility.manager import PositionService
    from repro.phy.energy import EnergyMeter
    from repro.sim.engine import Simulator


class SpanElection:
    """Network-wide coordinator election state (one instance per network)."""

    def __init__(
        self,
        sim: Simulator,
        positions: PositionService,
        rng: random.Random,
        energy_meters: Optional[Dict[int, EnergyMeter]] = None,
    ) -> None:
        self.sim = sim
        self.positions = positions
        self.rng = rng
        self.energy_meters = energy_meters or {}
        self.coordinators: Set[int] = set()
        self._since: Dict[int, float] = {}
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the per-node election checks."""
        if self._started:
            return
        self._started = True
        for node in range(self.positions.num_nodes):
            self.sim.schedule(self._jitter(node), self._check, node)

    def _jitter(self, node: int) -> float:
        """Backoff before a node's next check: energy-rich, high-utility
        nodes check (and therefore volunteer) sooner."""
        base = self.rng.uniform(0.1, SPAN_ELECTION_PERIOD_S)
        meter = self.energy_meters.get(node)
        if meter is not None:
            # Lower remaining energy -> longer delay (rotation/fairness).
            base *= 1.0 + (1.0 - meter.remaining_fraction(self.sim.now))
        return base

    def is_coordinator(self, node: int) -> bool:
        """Current coordinator status of ``node``."""
        return node in self.coordinators

    @property
    def backbone_size(self) -> int:
        """Number of coordinators right now."""
        return len(self.coordinators)

    # ------------------------------------------------------------------
    # Election rule
    # ------------------------------------------------------------------

    def _pair_connected(self, u: int, w: int, via: Set[int],
                        exclude: Optional[int] = None) -> bool:
        """Can u reach w directly or through one or two coordinators?"""
        neighbors_u = self.positions.neighbors(u)
        if w in neighbors_u:
            return True
        coords = {c for c in via if c != exclude}
        neighbors_w = self.positions.neighbors(w)
        one_hop = {c for c in coords if c in neighbors_u and c in neighbors_w}
        if one_hop:
            return True
        cu = {c for c in coords if c in neighbors_u}
        cw = sorted(c for c in coords if c in neighbors_w)
        for c1 in sorted(cu):
            c1_neighbors = self.positions.neighbors(c1)
            if any(c2 in c1_neighbors for c2 in cw if c2 != c1):
                return True
        return False

    def _should_volunteer(self, node: int) -> bool:
        neighbors = self.positions.sorted_neighbors(node)
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                if not self._pair_connected(u, w, self.coordinators):
                    return True
        return False

    def _can_withdraw(self, node: int) -> bool:
        if self.sim.now - self._since.get(node, 0.0) < SPAN_WITHDRAW_GRACE_S:
            return False
        neighbors = self.positions.sorted_neighbors(node)
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                if not self._pair_connected(u, w, self.coordinators,
                                            exclude=node):
                    return False
        return True

    def _check(self, node: int) -> None:
        if node in self.coordinators:
            if self._can_withdraw(node):
                self.coordinators.discard(node)
        elif self._should_volunteer(node):
            self.coordinators.add(node)
            self._since[node] = self.sim.now
        self.sim.schedule(self._jitter(node) + SPAN_ELECTION_PERIOD_S * 0.5,
                          self._check, node)


class SpanPowerManager(PowerManager):
    """Per-node view of the election: AM while coordinator, PS otherwise."""

    def __init__(self, node_id: int, election: SpanElection) -> None:
        self.node_id = node_id
        self.election = election

    def mode(self, now: float) -> PowerMode:
        """AM while elected coordinator."""
        if self.election.is_coordinator(self.node_id):
            return PowerMode.AM
        return PowerMode.PS

    def describe(self) -> str:
        """Label with current coordinator status."""
        role = "coordinator" if self.election.is_coordinator(self.node_id) else "ps"
        return f"SPAN({role})"


__all__ = ["SpanElection", "SpanPowerManager"]
