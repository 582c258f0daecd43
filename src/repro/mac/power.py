"""Power-mode managers.

A power manager answers one question for the PSM MAC at each decision point:
*may this node sleep for the rest of the beacon interval?*  The unmodified
PSM keeps every node permanently in PS mode (:class:`AlwaysPs`); ODPM
(:mod:`repro.mac.odpm`) switches between AM and PS based on communication
events.  The plain 802.11 baseline needs no manager: its MAC never sleeps.

Managers also receive the PSM MAC's communication-event *hints* ("a RREP
went through me", "a data packet went through me"), which only ODPM uses.
"""

from __future__ import annotations

from enum import Enum


class PowerMode(Enum):
    """IEEE 802.11 power-management modes."""

    AM = "active"      # active mode: awake for whole beacon intervals
    PS = "power-save"  # PS mode: awake only for ATIM windows / own traffic


class PowerManager:
    """Interface for per-node power-mode decisions."""

    def mode(self, now: float) -> PowerMode:
        """Current power-management mode."""
        raise NotImplementedError

    def note_event(self, kind: str, now: float) -> None:
        """Absorb a communication-event hint.

        ``kind`` is ``"rrep"`` or ``"data"``.  The default managers ignore
        hints.
        """

    def describe(self) -> str:
        """Short label for traces and reports."""
        return type(self).__name__


class AlwaysPs(PowerManager):
    """Permanently power-save: the unmodified-PSM and Rcast configuration."""

    def mode(self, now: float) -> PowerMode:
        """Always PS."""
        return PowerMode.PS


__all__ = ["PowerMode", "PowerManager", "AlwaysPs"]
