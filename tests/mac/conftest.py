"""MAC test harness: hand-built mini networks with direct MAC access."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.policy import (
    NoOverhearing,
    RcastPolicy,
    UnconditionalOverhearing,
)
from repro.core.rcast import RcastManager
from repro.mac.base import AlwaysOnMac
from repro.mac.power import AlwaysPs
from repro.mac.psm import PsmMac
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog, TraceRecord


class DummyPacket:
    """Network-layer stand-in with a kind and size."""

    def __init__(self, kind="data", size_bytes=200, label=""):
        self.kind = kind
        self.size_bytes = size_bytes
        self.label = label

    def __repr__(self):
        return f"DummyPacket({self.kind}, {self.label!r})"


class MacRig:
    """A simulator + channel + one MAC per node, with recording uppers and
    a trace log the MACs write to."""

    def __init__(self, positions, mac_factory, tx_range=150.0, cs_range=300.0):
        self.sim = Simulator()
        self.rngs = RngRegistry(99)
        self.trace = TraceLog()
        arena = Arena(max(x for x, _ in positions) + 100.0,
                      max(y for _, y in positions) + 100.0)
        model = StaticPlacement(list(positions), arena)
        self.positions = PositionService(self.sim, model, tx_range=tx_range,
                                         cs_range=cs_range)
        self.radios = {i: Radio(self.sim, i) for i in range(len(positions))}
        self.channel = Channel(self.sim, self.positions, self.radios,
                               bitrate=1e6)
        self.received: List[Tuple[int, object, int]] = []
        self.promiscuous: List[Tuple[int, object, int]] = []
        self.failures: List[Tuple[int, object, int]] = []
        self.sent: List[Tuple[int, object, int]] = []
        self.dropped: List[Tuple[int, object]] = []
        self.macs: Dict[int, object] = {}
        for i in range(len(positions)):
            mac = mac_factory(self, i)
            mac.set_upper(
                on_receive=lambda p, s, n=i: self.received.append((n, p, s)),
                on_promiscuous=lambda p, s, n=i: self.promiscuous.append((n, p, s)),
                on_link_failure=lambda p, d, n=i: self.failures.append((n, p, d)),
                on_sent=lambda p, d, n=i: self.sent.append((n, p, d)),
                on_dropped=lambda p, n=i: self.dropped.append((n, p)),
            )
            self.macs[i] = mac

    def start(self):
        for mac in self.macs.values():
            mac.start()

    def records(self, category: str, event: str,
                node: Optional[int] = None) -> List[TraceRecord]:
        """Trace records of one ``category``/``event`` (at one node)."""
        return [r for r in self.trace.filter(category, node)
                if r.event == event]

    def run(self, until):
        self.start()
        self.sim.run(until=until)


def always_on_factory(rig: MacRig, node_id: int) -> AlwaysOnMac:
    return AlwaysOnMac(rig.sim, node_id, rig.channel, rig.radios[node_id],
                       rig.positions, rig.rngs.stream(f"mac:{node_id}"),
                       trace=rig.trace)


def psm_factory(sender_policy_cls=RcastPolicy, power_manager_factory=AlwaysPs,
                **psm_kwargs):
    """Build a PsmMac factory with the given policy/power personality."""

    def factory(rig: MacRig, node_id: int) -> PsmMac:
        rcast = RcastManager(
            node_id, rig.sim, rig.positions,
            rig.rngs.stream(f"rcast:{node_id}"),
            sender_policy=sender_policy_cls(),
        )
        mac = PsmMac(
            rig.sim, node_id, rig.channel, rig.radios[node_id],
            rig.positions, rig.rngs.stream(f"mac:{node_id}"),
            rcast=rcast, power_manager=power_manager_factory(),
            trace=rig.trace, **psm_kwargs,
        )
        return mac

    return factory


@pytest.fixture
def line3_always_on():
    """Three always-on nodes in a 100 m line (range 150: adjacent only)."""
    return MacRig([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)],
                  always_on_factory)


def make_psm_rig(positions, sender_policy_cls=RcastPolicy,
                 power_manager_factory=AlwaysPs, **psm_kwargs) -> MacRig:
    return MacRig(positions, psm_factory(sender_policy_cls,
                                         power_manager_factory, **psm_kwargs))
