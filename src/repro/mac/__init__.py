"""MAC layer: 802.11 DCF abstraction, PSM, and power-mode managers.

Three MAC personalities cover the paper's scheme matrix:

* :class:`~repro.mac.base.AlwaysOnMac` — plain IEEE 802.11 DCF, radios never
  sleep (the paper's ``802.11`` baseline).
* :class:`~repro.mac.psm.PsmMac` — IEEE 802.11 PSM with synchronized beacon
  intervals and ATIM windows.  Its overhearing behaviour is pluggable
  (none / unconditional / Rcast-randomized), and its power-mode manager is
  pluggable too (always-PS, or ODPM's event-driven AM/PS switching from
  :mod:`repro.mac.odpm`).
"""

from repro.mac.base import AlwaysOnMac, MacBase
from repro.mac.dcf import DcfTransmitter
from repro.mac.frames import BROADCAST, Announcement, Frame, FrameKind
from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import AlwaysPs, PowerManager, PowerMode
from repro.mac.psm import PsmMac
from repro.mac.queue import TxQueue

__all__ = [
    "AlwaysOnMac",
    "AlwaysPs",
    "Announcement",
    "BROADCAST",
    "DcfTransmitter",
    "Frame",
    "FrameKind",
    "MacBase",
    "OdpmPowerManager",
    "PowerManager",
    "PowerMode",
    "PsmMac",
    "TxQueue",
]
