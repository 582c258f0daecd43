"""Routing test harness: static networks of AlwaysOnMac + routing agents."""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.mac.base import AlwaysOnMac
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.routing.agent import RoutingAgent
from repro.routing.aodv.protocol import AodvProtocol
from repro.routing.dsr.protocol import DsrProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


class Rig:
    """A static network of always-on nodes running one routing protocol.

    ``agents`` maps node id to its agent; subclasses build the agent.
    ``trace`` holds the agents' records and ``sent`` every ``(node,
    packet)`` an agent handed its MAC.
    """

    seed = 0

    def __init__(self, positions, tx_range=150.0, cs_range=300.0):
        self.sim = Simulator()
        self.rngs = RngRegistry(self.seed)
        self.trace = TraceLog()
        arena = Arena(max(x for x, _ in positions) + 100.0,
                      max(y for _, y in positions) + 100.0)
        model = StaticPlacement(list(positions), arena)
        self.positions = PositionService(self.sim, model, tx_range=tx_range,
                                         cs_range=cs_range)
        self.radios = {i: Radio(self.sim, i) for i in range(len(positions))}
        self.channel = Channel(self.sim, self.positions, self.radios,
                               bitrate=2e6)
        self.metrics = MetricsCollector(len(positions))
        self.macs: Dict[int, AlwaysOnMac] = {}
        self.agents: Dict[int, RoutingAgent[Any]] = {}
        self.delivered: List[object] = []
        self.sent: List[Tuple[int, Any]] = []
        for i in range(len(positions)):
            mac = AlwaysOnMac(self.sim, i, self.channel, self.radios[i],
                              self.positions, self.rngs.stream(f"mac:{i}"))
            mac.send = partial(self._send, mac.send, i)
            agent = self.agent(i, mac)
            agent.delivery_callback = self.delivered.append
            mac.start()
            self.macs[i] = mac
            self.agents[i] = agent

    def agent(self, node_id, mac) -> RoutingAgent[Any]:
        raise NotImplementedError

    def _send(self, send, node: int, packet: Any, dst: int) -> None:
        self.sent.append((node, packet))
        send(packet, dst)

    def originated(self, node: int, kind: str) -> int:
        """``kind`` packets ``node`` sent as their source (a relayed or
        re-flooded copy keeps its source's id)."""
        return sum(1 for sender, packet in self.sent
                   if sender == node == packet.src and packet.kind == kind)

    def records(self, event: str, node: Optional[int] = None) -> list:
        """The agents' trace records of one ``event`` (at one node)."""
        return [r for r in self.trace.filter(node=node) if r.event == event]

    def run(self, until: float) -> None:
        self.sim.run(until=until)


class DsrRig(Rig):
    """A static network of always-on nodes running DSR."""

    seed = 77

    def agent(self, node_id, mac) -> DsrProtocol:
        return DsrProtocol(self.sim, node_id, mac, self.metrics,
                           self.rngs.stream(f"dsr:{node_id}"),
                           trace=self.trace)

    @property
    def dsr(self) -> Dict[int, RoutingAgent[Any]]:
        return self.agents


class AodvRig(Rig):
    """A static network of always-on nodes running AODV."""

    seed = 55

    def agent(self, node_id, mac) -> AodvProtocol:
        return AodvProtocol(self.sim, node_id, mac, self.metrics,
                            trace=self.trace)

    @property
    def aodv(self) -> Dict[int, RoutingAgent[Any]]:
        return self.agents


def line_rig(n=5, spacing=100.0, rig=DsrRig, **kwargs) -> Rig:
    """n always-on nodes in a line; adjacent-only connectivity."""
    positions = [(10.0 + i * spacing, 50.0) for i in range(n)]
    return rig(positions, **kwargs)


@pytest.fixture
def rig5() -> Rig:
    return line_rig(5)
