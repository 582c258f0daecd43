"""Epoch-batched beacon machinery for the PSM MAC.

The paper assumes globally synchronized beacon intervals: every node acts
at shared epoch boundaries (beacon → ATIM window → window end).  The
original implementation scheduled **three events per node per interval**
(beacon, announce, ATIM end), so the kernel dispatched ``3·N`` epoch
events per interval — pure overhead that scales linearly in node count
and dominated the heap at 1k-node scale.

This module batches that machinery: nodes sharing a clock grid — the same
``(beacon_interval, atim_window)`` and the same boundary instant — join an
:class:`_EpochGroup`, and **one kernel event per group per interval**
drives all member nodes.  The common perfectly-synchronized case is a
single group, i.e. 3 events per interval total instead of ``3·N``.

Byte-identical equivalence with the per-node event model
--------------------------------------------------------
Golden traces must not change (only ``events_processed`` may).  The
batched model preserves per-node observable order because:

* **Within a batch** members are processed in insertion order, which is
  ascending node id (``build_network`` starts MACs in id order).  In the
  per-node model, simultaneous per-node events fired in scheduling-seq
  order, which was the same ascending-id order — each beacon schedules
  the node's next beacon, so the order perpetuates interval to interval.
* **Across groups and against other events** ordering is by the kernel's
  ``(time, priority, seq)`` key exactly as before: a group's chain event
  is scheduled at the same instant, with the same priority, as the
  per-node events it replaces, so it sorts identically relative to
  traffic, DCF, fault and deferred-announcement events.
* **Crash/recovery**: a halted node leaves its group; other members'
  order is unchanged.  A recovered node re-joins *at the end* of the
  member list — matching the per-node model, where the resumed node's
  beacon event was scheduled after every surviving member's (their
  events for boundary ``t_b`` were scheduled at ``t_b - T``, strictly
  before the resume instant) and that tail position then perpetuates.
  A resumed node whose recomputed boundary does not bit-exactly match
  the group's pending boundary (float accumulation drift, late-started
  grids) gets a private splinter group, reproducing the per-node chain
  it would have run.

At the ATIM-window end every member first folds its wake *reasons* into
a small int bitmask (see :mod:`repro.mac.psm`); then, in member order, a
member with a nonzero mask stays awake and submits its announced frames
and the others sleep.  Single-member groups take the same loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_KERNEL, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.psm import PsmMac

#: group key: (beacon_interval, atim_window, boundary instant)
_GroupKey = Tuple[float, float, float]


class _EpochGroup:
    """One clock grid: the members sharing a beacon/ATIM boundary chain.

    The group owns the three chain events (beacon boundary at kernel
    priority, announce fan-out and ATIM-window end at normal priority)
    and calls the per-node bodies on every member.  Membership mutations
    happen only from fault events (halt/resume), never from inside a
    batch body, so the fire loops iterate the live list.
    """

    __slots__ = ("sim", "beacon_interval", "atim_window", "members",
                 "next_boundary", "_beacon_event", "_announce_event",
                 "_atim_event")

    def __init__(self, sim: Simulator, beacon_interval: float,
                 atim_window: float) -> None:
        self.sim = sim
        self.beacon_interval = beacon_interval
        self.atim_window = atim_window
        self.members: List["PsmMac"] = []
        #: absolute time of the pending beacon fire (the event's own time,
        #: so resume-alignment checks compare bit-exact floats)
        self.next_boundary = float("nan")
        self._beacon_event: Optional[Event] = None
        self._announce_event: Optional[Event] = None
        self._atim_event: Optional[Event] = None

    @property
    def alive(self) -> bool:
        """True while the beacon chain has a pending event."""
        return self._beacon_event is not None

    # -- membership ----------------------------------------------------

    def start_chain(self, first_boundary: float) -> None:
        """Arm the beacon chain; first fire at ``first_boundary``."""
        self._beacon_event = self.sim.schedule_at(
            first_boundary, self._fire_beacon, priority=PRIORITY_KERNEL)
        self.next_boundary = self._beacon_event.time

    def add(self, mac: "PsmMac", active_from: float) -> None:
        """Append ``mac``; it first participates at ``active_from``.

        The guard matters mid-window: a node recovering between a beacon
        and its pending ATIM-end event must not be swept into batches of
        the interval it missed the start of.
        """
        mac._epoch_active_from = active_from
        self.members.append(mac)

    def remove(self, mac: "PsmMac") -> None:
        """Drop a halted member; cancel the chain when the group empties."""
        try:
            self.members.remove(mac)
        except ValueError:
            return
        if not self.members:
            for event in (self._beacon_event, self._announce_event,
                          self._atim_event):
                if event is not None:
                    event.cancel()
            self._beacon_event = None
            self._announce_event = None
            self._atim_event = None

    # -- the three batched chain events --------------------------------

    def _fire_beacon(self) -> None:
        sim = self.sim
        now = sim.now
        for mac in self.members:
            if mac._epoch_active_from <= now:
                mac._beacon_body(now)
        # Same scheduling order as the per-node model: announce after
        # every node has processed its beacon boundary, ATIM end one
        # window later, next boundary one interval later (kernel).
        self._announce_event = sim.schedule_at(now, self._fire_announce, now)
        self._atim_event = sim.schedule(
            self.atim_window, self._fire_atim_end, now)
        self._beacon_event = sim.schedule(
            self.beacon_interval, self._fire_beacon, priority=PRIORITY_KERNEL)
        self.next_boundary = self._beacon_event.time

    def _fire_announce(self, interval_start: float) -> None:
        for mac in self.members:
            if mac._epoch_active_from <= interval_start:
                mac._announce_body()

    def _fire_atim_end(self, interval_start: float) -> None:
        now = self.sim.now
        # Fold each member's reasons, power mode and pending-tx state into
        # its wake bitmask first, then stay awake or sleep per member in
        # member order (the folds are pure reads, so fold/apply
        # separation is safe).
        folds = [(mac, mac._atim_fold(now)) for mac in self.members
                 if mac._epoch_active_from <= interval_start]
        for mac, (mask, announced) in folds:
            if mask:
                mac._atim_apply(now, mask, announced)
            else:
                mac._atim_sleep(now)


class EpochScheduler:
    """Registry of epoch groups; one per distinct clock grid.

    ``register`` is called once per MAC at ``start()`` time, ``rejoin``
    on fault recovery, ``deregister`` on crash.  A :class:`PsmMac`
    constructed without a shared scheduler builds a private one, which
    degenerates to exactly the per-node event model (single-member
    groups), preserving standalone-construction behavior.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._groups: Dict[_GroupKey, _EpochGroup] = {}

    def register(self, mac: "PsmMac") -> _EpochGroup:
        """Join (or create) the group for ``mac``'s clock grid.

        The first boundary is ``now + clock_offset`` — the same float
        expression the per-node model produced via ``sim.schedule`` —
        and it is part of the group key, so nodes started at different
        times never share a chain even with equal offsets.
        """
        first_boundary = self.sim.now + mac.clock_offset
        key = (mac.beacon_interval, mac.atim_window, first_boundary)
        group = self._groups.get(key)
        if group is None or group.next_boundary != first_boundary:
            # No group on this grid, or a stale key: the chain already
            # advanced past this boundary (possible only for an
            # offset-0 registration within the boundary timestamp).
            group = _EpochGroup(self.sim, mac.beacon_interval,
                                mac.atim_window)
            group.start_chain(first_boundary)
            self._groups[key] = group
        group.add(mac, active_from=first_boundary)
        return group

    def rejoin(self, mac: "PsmMac", boundary: float) -> _EpochGroup:
        """Re-attach a recovered node at ``boundary`` (next grid point).

        Appends to the node's previous group when that group is alive
        and its pending fire bit-exactly matches ``boundary``; otherwise
        the node gets a fresh splinter group so its chain reproduces the
        per-node model's float arithmetic exactly.
        """
        group = mac._epoch_group
        if group is not None and group.alive \
                and group.next_boundary == boundary:
            group.add(mac, active_from=boundary)
            return group
        group = _EpochGroup(self.sim, mac.beacon_interval, mac.atim_window)
        group.start_chain(boundary)
        group.add(mac, active_from=boundary)
        return group

    def deregister(self, mac: "PsmMac") -> None:
        """Detach a halted node from its group (idempotent)."""
        group = mac._epoch_group
        if group is not None:
            group.remove(mac)


__all__ = ["EpochScheduler"]
