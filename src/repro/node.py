"""Per-node protocol stack bundle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.rcast import RcastManager
from repro.mac.base import MacBase
from repro.phy.radio import Radio
from repro.routing.agent import RoutingAgent


@dataclass
class Node:
    """One mobile node: radio + MAC + routing agent + traffic sources.

    ``dsr`` holds the node's :class:`~repro.routing.agent.RoutingAgent`:
    a :class:`~repro.routing.dsr.protocol.DsrProtocol` in the paper's
    configuration, or an
    :class:`~repro.routing.aodv.protocol.AodvProtocol` when the scenario
    selects the AODV baseline.  The attribute keeps the paper's protocol
    name whichever agent it holds.
    """

    node_id: int
    radio: Radio
    mac: MacBase
    dsr: RoutingAgent[Any]
    rcast: Optional[RcastManager] = None
    sources: List[object] = field(default_factory=list)

    def start(self) -> None:
        """Bring the stack up (MAC beacon clock, traffic sources)."""
        self.mac.start()
        for source in self.sources:
            source.start()

    def finalize(self) -> None:
        """Close the books at the end of a run."""
        self.mac.finalize()
        self.radio.finalize()

    @property
    def energy_joules(self) -> float:
        """Energy consumed so far."""
        return self.radio.meter.energy_joules()

    @property
    def awake_time(self) -> float:
        """Seconds spent awake so far."""
        return self.radio.meter.awake_time


__all__ = ["Node"]
