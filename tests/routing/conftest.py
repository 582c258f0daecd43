"""Routing test harness: static networks of AlwaysOnMac + routing agents."""

from __future__ import annotations

from typing import Any, Dict, List

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


class Rig:
    """A static network of always-on nodes running one routing protocol.

    ``agents`` maps node id to its agent; subclasses build the agent.
    """

    seed = 0

    def __init__(self, positions, tx_range=150.0, cs_range=300.0):
        self.sim = Simulator()
        self.rngs = RngRegistry(self.seed)
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
        for i in range(len(positions)):
            mac = AlwaysOnMac(self.sim, i, self.channel, self.radios[i],
                              self.positions, self.rngs.stream(f"mac:{i}"))
            agent = self.agent(i, mac)
            agent.delivery_callback = self.delivered.append
            mac.start()
            self.macs[i] = mac
            self.agents[i] = agent

    def agent(self, node_id, mac) -> RoutingAgent[Any]:
        raise NotImplementedError

    def run(self, until: float) -> None:
        self.sim.run(until=until)


class DsrRig(Rig):
    """A static network of always-on nodes running DSR."""

    seed = 77

    def agent(self, node_id, mac) -> DsrProtocol:
        return DsrProtocol(self.sim, node_id, mac, self.metrics,
                           self.rngs.stream(f"dsr:{node_id}"))

    @property
    def dsr(self) -> Dict[int, RoutingAgent[Any]]:
        return self.agents


class AodvRig(Rig):
    """A static network of always-on nodes running AODV."""

    seed = 55

    def agent(self, node_id, mac) -> AodvProtocol:
        return AodvProtocol(self.sim, node_id, mac, self.metrics)

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
