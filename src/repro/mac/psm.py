"""IEEE 802.11 PSM MAC with pluggable overhearing and power management.

Time is divided into globally synchronized beacon intervals (the paper
assumes a distributed clock-sync algorithm).  Each interval:

1. **Beacon boundary** — every radio wakes; per-interval state resets.
2. **ATIM window** — every node advertises its buffered frames to its
   radio neighbors.  Announcements carry the Rcast overhearing level as an
   ATIM subtype.  Each neighbor classifies every advertisement: *addressed*
   (stay awake), *broadcast* (stay awake), or *somebody else's unicast*
   (consult the Rcast manager: NONE -> sleep, UNCONDITIONAL -> stay awake,
   RANDOMIZED -> Bernoulli(P_R)).  Per the paper's explicit simplifying
   assumption, advertisements themselves always succeed; their energy cost
   is captured by everyone being awake for the whole window.
3. **ATIM window end** — nodes with no reason to stay awake (no frames to
   send, not addressed, no audible broadcast, no elected overhearing, not
   in AM mode) sleep until the next beacon boundary.  The rest transmit
   their announced frames under DCF contention, with the boundary as a hard
   deadline; frames that do not make it are re-announced next interval.

ODPM rides on top via its power manager: AM-mode nodes stay awake through
entire intervals, and an AM sender that *believes* its next hop is also in
AM (from the PwrMgt bit of previously heard frames) bypasses the ATIM path
and transmits immediately; if the belief turns out wrong the frame falls
back to the ATIM path, paying delay rather than losing the packet — exactly
the failure mode the paper describes for inaccurate mode information.

Both per-receiver fan-outs are one call per frame, not per receiver.  The
PSM MACs on a channel join one :class:`_PsmFanout` at construction (the
way :class:`~repro.mac.epoch.EpochScheduler` groups beacon chains, so a
hand-built rig needs no wiring), which is also the node-id -> MAC map ATIM
delivery uses:

* **receive** — the channel hands each decoded transmission's ascending
  delivery order to :meth:`_PsmFanout.deliver` once.  Per receiver it
  records the sender as heard (the Rcast last-heard store and the
  PwrMgt-bit mode belief), passes frames addressed to the node (or
  broadcast) up to routing, and taps somebody else's unicast only from a
  sender the node elected to overhear this interval, with the
  opportunistic tap, or while in AM with tap-in-AM (ODPM, SPAN);
* **ATIM** — each advertisement goes to the sender's neighbours in one
  :meth:`_PsmFanout.announce` call, which checks each neighbour's window
  overlap and classifies the advertisement there.

Each computes a frame's or an advertisement's invariants once and then
runs every receiver's steps in ascending node order, in the order the
former per-receiver methods ran them, so events, RNG draws and traces are
unchanged.  Routing and Rcast callbacks are looked up on the receiver at
call time: they are instance attributes an observer may wrap.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.constants import (
    ATIM_WINDOW_S,
    BEACON_INTERVAL_S,
    PSM_MAX_ANNOUNCEMENTS,
    PSM_MODE_BELIEF_TTL_S,
)
from repro.core.rcast import RcastManager
from repro.mac.base import MacBase, join_fanout
from repro.mac.dcf import TxOutcome
from repro.mac.epoch import EpochScheduler, _EpochGroup
from repro.mac.frames import BROADCAST, Announcement, Frame, FrameKind
from repro.mac.power import AlwaysPs, PowerManager, PowerMode
from repro.mac.queue import QueuedFrame, TxQueue
from repro.mobility.manager import PositionService
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import TraceSink

# Per-interval wake reasons as bit flags.  Bit order is alphabetical by
# reason name, so joining the set bits in ascending order reproduces the
# ``",".join(sorted(reasons))`` strings of the original set-based code
# byte for byte in traces.
_R_ADDRESSED = 1
_R_AM = 2
_R_BROADCAST = 4
_R_OVERHEAR = 8
_R_TX = 16
_REASON_BITS = ((_R_ADDRESSED, "addressed"), (_R_AM, "am"),
                (_R_BROADCAST, "broadcast"), (_R_OVERHEAR, "overhear"),
                (_R_TX, "tx"))
#: mask -> trace string, precomputed for all 32 combinations
_REASON_STRINGS = tuple(
    ",".join(name for bit, name in _REASON_BITS if mask & bit)
    for mask in range(32)
)


class PsmMac(MacBase):
    """802.11 PSM MAC; see module docstring for the interval protocol."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: Channel,
        radio: Radio,
        positions: PositionService,
        rng: random.Random,
        rcast: RcastManager,
        power_manager: Optional[PowerManager] = None,
        beacon_interval: float = BEACON_INTERVAL_S,
        atim_window: float = ATIM_WINDOW_S,
        queue_capacity: int = 64,
        tap_in_am: bool = False,
        opportunistic_tap: bool = False,
        clock_offset: float = 0.0,
        trace: Optional[TraceSink] = None,
        epochs: Optional[EpochScheduler] = None,
    ) -> None:
        from repro.sim.trace import NULL_TRACE

        super().__init__(sim, node_id, channel, radio, positions, rng,
                         trace=trace if trace is not None else NULL_TRACE)
        self.rcast = rcast
        #: the Rcast last-heard store, written by both fan-outs for every
        #: delivered frame and every absorbed announcement
        self._heard_at = rcast.heard_at
        #: adaptive P_R policy (None on the fixed path: every hook below
        #: is guarded, so a fixed run executes byte-identically)
        self._adaptive = rcast.adaptive
        self.power = power_manager if power_manager is not None else AlwaysPs()
        self.beacon_interval = beacon_interval
        self.atim_window = atim_window
        self.tap_in_am = tap_in_am
        self.opportunistic_tap = opportunistic_tap
        #: this node's clock error relative to true beacon time.  The paper
        #: assumes a perfect sync algorithm (Tseng et al.); a nonzero offset
        #: models residual sync error: the node's windows shift, so ATIMs
        #: from better-synchronized neighbors can miss its listening window.
        self.clock_offset = clock_offset

        self._queue = TxQueue(queue_capacity)
        # -inf until the first beacon fires: a node whose (offset) clock has
        # not started its first interval is not listening for ATIMs yet.
        self._interval_start = float("-inf")
        #: per-interval wake reasons as an ``_R_*`` bitmask
        self._reasons = 0
        #: senders whose traffic this node elected to overhear this interval
        self._overhear_senders: Set[int] = set()
        self._mode_beliefs: Dict[int, Tuple[PowerMode, float]] = {}
        self._started = False
        #: the shared epoch scheduler batches the beacon chain across all
        #: nodes on the same clock grid; a standalone MAC gets a private
        #: scheduler, which is exactly the old per-node event model
        self._epochs = epochs if epochs is not None else EpochScheduler(sim)
        self._epoch_group: Optional[_EpochGroup] = None
        #: first boundary this node participates in (set by its group);
        #: guards a recovered node against batches of the interval it
        #: missed the start of
        self._epoch_active_from = float("inf")
        #: bumped on every halt — deferred cross-window announcement events
        #: carry the epoch they were scheduled in and are dropped when it
        #: no longer matches (they predate the crash)
        self._epoch = 0
        #: advertisements lost between this node's and a sender's
        #: disjoint ATIM windows (clock jitter)
        self.missed_announcements = 0
        #: the channel's PSM group: receive and ATIM fan-outs, peer map
        self._fanout: _PsmFanout = join_fanout(_PsmFanout, self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the synchronized beacon clock."""
        if self._started:
            return
        self._started = True
        self.radio.wake()
        self._epoch_group = self._epochs.register(self)

    def halt(self) -> None:
        """Node crash: leave the beacon grid and forget interval state.

        The crash is a cold stop — queued frames die with the node, the
        per-interval wake reasons and overhearing elections are void, and
        mode beliefs (other nodes' power states) do not survive a reboot.
        Deferred cross-window announcements already in the simulator queue
        are invalidated by bumping the epoch rather than holding handles
        to every one of them.
        """
        super().halt()
        self._epochs.deregister(self)
        self._epoch_active_from = float("inf")
        self._epoch += 1
        self._queue = TxQueue(self._queue.capacity)
        self._reasons = 0
        self._overhear_senders = set()
        self._mode_beliefs = {}
        self._interval_start = float("-inf")

    def resume(self) -> None:
        """Recover from a crash: rejoin the beacon grid at the next boundary.

        The paper's clock-sync assumption means the grid itself survives
        the crash — this node's boundaries stay at ``clock_offset + k*T``
        — so recovery waits for the next strictly-future boundary rather
        than starting a drifted private clock.  The radio stays down until
        that boundary fires (``_beacon_body`` wakes it).
        """
        super().resume()
        if not self._started:
            return
        now = self.sim.now
        interval = self.beacon_interval
        k = math.floor((now - self.clock_offset) / interval) + 1
        t = self.clock_offset + k * interval
        while t <= now:
            t += interval
        self._epoch_group = self._epochs.rejoin(self, t)

    # ------------------------------------------------------------------
    # Beacon-interval machinery
    # ------------------------------------------------------------------

    @property
    def next_boundary(self) -> float:
        """Absolute time of the next beacon boundary."""
        return self._interval_start + self.beacon_interval

    @property
    def queue_depth(self) -> int:
        """Beacon-interval queue plus the DCF pipeline (gauge)."""
        return len(self._queue) + self.dcf.queue_depth

    def _beacon_body(self, now: float) -> None:
        """Per-node beacon-boundary work (chain scheduling lives in the
        epoch group)."""
        self._interval_start = now
        self.radio.wake()
        # Stale submissions from the previous interval are NOT cancelled:
        # their expired deadline makes them complete as DEFERRED on their
        # next attempt, and cancelling would also silently kill in-flight
        # ODPM immediate sends (which carry no deadline).
        self._reasons = 0
        self._overhear_senders.clear()
        self._queue.clear_announcements()
        if self._adaptive is not None:
            self.rcast.on_epoch(now)

    def _announce_body(self) -> None:
        if not self._queue:
            return
        mode = self.power.mode(self.sim.now)
        # Ascending per-snapshot tuple: iteration order is deterministic by
        # construction (ATIM delivery schedules events), and no frozenset
        # is materialized per announce call.
        neighbors = self.positions.sorted_neighbors(self.node_id)
        fanout = self._fanout
        # One ATIM per destination, as in the 802.11 PSM: a single
        # advertisement covers every frame buffered for that receiver, and
        # the strongest overhearing level among them is the one encoded.
        # The ATIM window is also a finite contention period, so at most
        # ``PSM_MAX_ANNOUNCEMENTS`` destinations get through per interval —
        # a deep backlog therefore cannot wake the whole neighborhood.
        per_dst: Dict[int, List[QueuedFrame]] = {}
        for entry in self._queue:
            per_dst.setdefault(entry.frame.dst, []).append(entry)
        budget = PSM_MAX_ANNOUNCEMENTS
        for dst, entries in per_dst.items():
            if budget <= 0:
                break
            budget -= 1
            best_level, best_subtype, best_kind = None, None, "data"
            for entry in entries:
                level, subtype = self.rcast.advertise(entry.frame.packet)
                if best_level is None or level.rank > best_level.rank:
                    best_level, best_subtype = level, subtype
                    best_kind = getattr(entry.frame.packet, "kind", "data")
                entry.announced = True
                entry.frame.sender_mode = mode
            announcement = Announcement(
                sender=self.node_id,
                dst=dst,
                frame_id=entries[0].frame.frame_id,
                level=best_level,
                subtype=best_subtype,
                packet_kind=best_kind,
                sender_mode=mode,
            )
            if self.trace.enabled:
                assert best_level is not None
                self.trace.emit(
                    self.sim.now, "atim", self.node_id, "advertise",
                    dst=dst, level=best_level.name, subtype=best_subtype,
                    kind=best_kind, frames=len(entries),
                )
            fanout.announce(announcement, neighbors)

    def _atim_fold(self, now: float) -> Tuple[int, List[QueuedFrame]]:
        """Fold power mode and pending-tx state into the wake-reason mask.

        Pure reads only: the epoch group folds every member before
        applying any member's effects, so a fold must not mutate state
        another node's apply could observe.
        """
        mask = self._reasons
        if self.power.mode(now) is PowerMode.AM:
            mask |= _R_AM
        announced = self._queue.announced_entries()
        if announced:
            mask |= _R_TX
        return mask, announced

    def _atim_sleep(self, now: float) -> None:
        """No reason to stay awake: doze until the next boundary."""
        if self.trace.enabled:
            self.trace.emit(now, "psm", self.node_id, "sleep",
                            until=self.next_boundary)
        self.radio.sleep()

    def _atim_apply(self, now: float, mask: int,
                    announced: List[QueuedFrame]) -> None:
        """Stay awake: submit announced frames under DCF contention."""
        if self.trace.enabled:
            self.trace.emit(now, "psm", self.node_id, "awake",
                            reasons=_REASON_STRINGS[mask],
                            queued=len(announced))
        deadline = self.next_boundary
        for entry in announced:
            self.dcf.submit(entry.frame, partial(self._on_queue_done, entry),
                            deadline=deadline)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, packet: Any, dst: int) -> None:
        """Queue for the next ATIM window, or transmit immediately when
        ODPM believes both ends are in AM."""
        now = self.sim.now
        self._note_power_event(packet)
        if (
            dst != BROADCAST
            and self.power.mode(now) is PowerMode.AM
            and self.radio.is_awake
            and self._believes_am(dst)
        ):
            frame = Frame(self.node_id, dst, packet, FrameKind.DATA,
                          sender_mode=PowerMode.AM)
            self.dcf.submit(frame, self._on_immediate_done)
            return
        self._enqueue(packet, dst)

    def _enqueue(self, packet: Any, dst: int) -> None:
        frame = Frame(self.node_id, dst, packet, FrameKind.DATA)
        self._queue.push(QueuedFrame(
            frame, self.sim.now,
            on_failure=lambda f: self._on_dropped(f.packet),
        ))

    def _believes_am(self, dst: int) -> bool:
        belief = self._mode_beliefs.get(dst)
        if belief is None:
            return False
        mode, when = belief
        return (mode is PowerMode.AM
                and self.sim.now - when <= PSM_MODE_BELIEF_TTL_S)

    # ------------------------------------------------------------------
    # DCF completions
    # ------------------------------------------------------------------

    def _on_immediate_done(self, frame: Frame, outcome: TxOutcome,
                           delivered: Set[int]) -> None:
        if outcome is TxOutcome.DELIVERED:
            self._on_sent(frame.packet, frame.dst)
            return
        # Wrong belief (receiver asleep) or collisions: fall back to the
        # announced path — pay delay instead of declaring the link dead.
        self._mode_beliefs.pop(frame.dst, None)
        fresh = Frame(self.node_id, frame.dst, frame.packet, FrameKind.DATA)
        self._queue.push(QueuedFrame(
            fresh, self.sim.now,
            on_failure=lambda f: self._on_dropped(f.packet),
        ))

    def _on_queue_done(self, entry: QueuedFrame, frame: Frame,
                       outcome: TxOutcome, delivered: Set[int]) -> None:
        if outcome is TxOutcome.DELIVERED:
            self._queue.remove(entry)
            self._on_sent(frame.packet, frame.dst)
        elif outcome is TxOutcome.FAILED:
            self._queue.remove(entry)
            self._on_link_failure(frame.packet, frame.dst)
        # DEFERRED: entry stays queued and is re-announced next interval.

    # ------------------------------------------------------------------
    # Power hints
    # ------------------------------------------------------------------

    def _note_power_event(self, packet: Any) -> None:
        kind = getattr(packet, "kind", None)
        if kind in _POWER_EVENTS:
            self.power.note_event(kind, self.sim.now)


#: packet kinds that restart a power manager's keep-alive (ODPM's RREP
#: and data timers) when sent or received
_POWER_EVENTS = ("data", "rrep")


class _PsmFanout:
    """The PSM MACs on one channel and their two per-receiver fan-outs.

    See the module docstring.  ``macs`` holds every PSM MAC constructed on
    the channel; it is also the peer map ATIM delivery looks neighbours up
    in.
    """

    __slots__ = ("sim", "macs")

    def __init__(self, channel: Channel) -> None:
        self.sim = channel.sim
        self.macs: Dict[int, PsmMac] = {}
        channel.set_fanout(self.deliver)

    def deliver(self, frame: Frame, sender: int,
                delivery_order: List[int]) -> None:
        """Receive fan-out: one decoded frame to all its receivers."""
        now = self.sim.now
        dst = frame.dst
        src = frame.src
        packet = frame.packet
        broadcast = dst == BROADCAST
        belief = ((frame.sender_mode, now)
                  if frame.sender_mode is not None else None)
        kind = getattr(packet, "kind", None)
        power_event = kind if kind in _POWER_EVENTS else None
        macs = self.macs
        for node in delivery_order:
            mac = macs[node]
            mac._heard_at[sender] = now
            if belief is not None:
                mac._mode_beliefs[sender] = belief
            if broadcast or node == dst:
                if power_event is not None:
                    mac.power.note_event(power_event, now)
                mac._on_receive(packet, sender)
            elif src in mac._overhear_senders:
                if mac._adaptive is not None:
                    mac._adaptive.on_overhear_delivered()
                mac._on_promiscuous(packet, sender)
            elif mac.opportunistic_tap or (
                    mac.tap_in_am and mac.power.mode(now) is PowerMode.AM):
                mac._on_promiscuous(packet, sender)

    def announce(self, announcement: Announcement, neighbors: Tuple[int, ...],
                 epoch: Optional[int] = None) -> None:
        """ATIM fan-out: one advertisement to the sender's ``neighbors``.

        With clock error, ATIM exchange succeeds when the sender's and the
        receiver's windows *overlap* (senders retry ATIMs throughout their
        window).  The advertisement is emitted at the sender's window
        start: a neighbour whose current window holds that instant
        classifies it now; one whose *next* window starts within one
        window length classifies it there, through a deferred event that
        re-enters this method for that one neighbour with its crash
        ``epoch``; any other neighbour's window is disjoint and it misses
        the advertisement.  Perfectly synchronized nodes never miss.
        """
        sim = self.sim
        now = sim.now
        sender = announcement.sender
        dst = announcement.dst
        broadcast = dst == BROADCAST
        belief = ((announcement.sender_mode, now)
                  if announcement.sender_mode is not None else None)
        macs = self.macs
        for node in neighbors:
            peer = macs.get(node)
            if peer is None:
                continue
            if epoch is None:
                if not peer._started or peer._halted:
                    continue
                delta = now - peer._interval_start
                if not 0.0 <= delta < peer.atim_window:
                    interval = peer.beacon_interval
                    if (delta < interval
                            and interval - delta < peer.atim_window):
                        # The tail of the sender's window reaches into
                        # the peer's next one.
                        sim.schedule(interval - delta, self.announce,
                                     announcement, (node,), peer._epoch)
                    else:
                        peer.missed_announcements += 1
                    continue
            elif epoch != peer._epoch:
                continue  # deferred across the peer's crash: void
            if belief is not None:
                peer._mode_beliefs[sender] = belief
            peer._heard_at[sender] = now
            if peer._adaptive is not None:
                peer._adaptive.on_announcement_heard(sender)
            if node == dst:
                peer._reasons |= _R_ADDRESSED
            elif broadcast:
                if peer.rcast.should_receive_broadcast(announcement):
                    peer._reasons |= _R_BROADCAST
            elif peer.rcast.should_overhear(announcement):
                peer._reasons |= _R_OVERHEAR
                peer._overhear_senders.add(sender)


__all__ = ["PsmMac"]
