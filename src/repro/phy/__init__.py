"""Physical layer: propagation, radio state, energy accounting, channel.

The paper's ns-2 setup uses the two-ray ground model with thresholds that
make reception deterministic within 250 m.  We implement the analytic
two-ray/free-space path-loss models (:mod:`repro.phy.propagation`) and drive
the simulation with the equivalent disk reception rule, plus a carrier-sense
range.  :mod:`repro.phy.channel` serializes transmissions, detects
collisions, and delivers frames to awake radios;
:mod:`repro.phy.energy` does state-timed energy accounting with the
WaveLAN-II power numbers.
"""

from repro.phy.channel import Channel, Transmission
from repro.phy.energy import EnergyMeter, RadioState
from repro.phy.propagation import (
    DiskReception,
    FreeSpaceModel,
    TwoRayGroundModel,
)
from repro.phy.radio import Radio

__all__ = [
    "Channel",
    "DiskReception",
    "EnergyMeter",
    "FreeSpaceModel",
    "Radio",
    "RadioState",
    "Transmission",
    "TwoRayGroundModel",
]
