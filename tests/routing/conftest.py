"""Routing test harness: line networks of AlwaysOnMac + DSR agents."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.mac.base import AlwaysOnMac
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.routing.dsr.protocol import DsrProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class DsrRig:
    """A static network of always-on nodes running DSR."""

    def __init__(self, positions, tx_range=150.0, cs_range=300.0):
        self.sim = Simulator()
        self.rngs = RngRegistry(77)
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
        self.dsr: Dict[int, DsrProtocol] = {}
        self.delivered: List[object] = []
        for i in range(len(positions)):
            mac = AlwaysOnMac(self.sim, i, self.channel, self.radios[i],
                              self.positions, self.rngs.stream(f"mac:{i}"))
            agent = DsrProtocol(
                self.sim, i, mac,
                metrics=self.metrics, rng=self.rngs.stream(f"dsr:{i}"),
            )
            agent.delivery_callback = self.delivered.append
            mac.start()
            self.macs[i] = mac
            self.dsr[i] = agent

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def line_rig(n=5, spacing=100.0, **kwargs) -> DsrRig:
    """n always-on DSR nodes in a line; adjacent-only connectivity."""
    positions = [(10.0 + i * spacing, 50.0) for i in range(n)]
    return DsrRig(positions, **kwargs)


@pytest.fixture
def rig5() -> DsrRig:
    return line_rig(5)
