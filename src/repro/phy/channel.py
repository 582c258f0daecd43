"""The shared wireless medium.

A :class:`Transmission` occupies the channel for ``bits / bitrate`` seconds.
Delivery semantics (matching what the paper's results actually depend on):

* **Audibility** — receivers are the nodes within transmission range of the
  sender at transmission start, captured as a snapshot (node speeds are two
  orders of magnitude below what would move a node across the range edge
  within one frame time).
* **Eligibility** — a node can only decode if its radio is awake and not
  itself transmitting, both when the frame starts and when it ends.
* **Collision** — a frame is corrupted at receiver ``r`` if any other
  transmission overlaps it in time with a sender within carrier-sense range
  of ``r``, or if ``r`` itself transmitted during the overlap.
* **Carrier sense** — a sender defers when any active transmission's sender
  is within its carrier-sense range (the MAC layer implements backoff).

Delivery classification is vectorized and has one encoding: each
transmission snapshots the position service's interned int64 neighbor
index array, and the channel maintains a write-through numpy mirror of
every radio's "blocked until" time (``tx_until`` while awake, +inf while
dozing), so audibility, eligibility and corruption resolve as boolean
masks over the audible set with a handful of numpy ops per frame instead
of a per-receiver attribute walk, at every audible-set size.
Delivery is one call per transmission: :meth:`Channel._finish` hands the
frame, its sender and the ascending delivery order to the channel's receive
fan-out.  Each MAC family installs its own with :meth:`Channel.set_fanout`
(the always-on 802.11 MACs, see :mod:`repro.mac.base`; the PSM MACs, see
:mod:`repro.mac.psm`); the default calls each node's attached receiver in
turn (hand-built channels in tests).  Either way receivers are served in
ascending node order (the index arrays are ascending), so the event
schedule the MAC layers observe is deterministic.

Busy→idle notification: a MAC that sensed the medium busy can subscribe via
:meth:`wait_for_idle` instead of re-polling ``is_busy`` on a timer.  The
medium can only become idle for a listener when a transmission ends, so the
end of :meth:`_finish` is the single wake point: every waiter whose carrier
sense has gone quiet is called back synchronously, in ascending node order.
This is what lets the DCF collapse its ~26:1 poll-to-delivery event ratio.

The channel does not model MAC ACK frames explicitly: the sender's MAC is
told which nodes decoded the frame and applies ACK semantics itself.  This
halves the event count and is energetically neutral under the paper's model
(sender and receiver are awake for the exchange either way).
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional,
                    Set, Tuple)

import numpy as np
from numpy.typing import NDArray

from repro.constants import BITRATE_BPS, MAC_HEADER_BYTES
from repro.errors import ChannelError
from repro.mobility.manager import PositionService
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACE, TraceSink

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.mac.frames import Frame

_tx_ids = itertools.count()

#: Shared zero-length mask/index for transmissions with no audible nodes.
_EMPTY_MASK: NDArray[np.bool_] = np.empty(0, dtype=bool)
_EMPTY_IDX: NDArray[np.int64] = np.empty(0, dtype=np.int64)


def reset_tx_ids() -> None:
    """Restart transmission ids at 0 (per-build; keeps traces stable)."""
    global _tx_ids
    _tx_ids = itertools.count()


class Transmission:
    """One frame in flight."""

    __slots__ = (
        "tx_id", "sender", "frame", "start", "end",
        "audible", "audible_set", "audible_idx",
        "eligible_mask", "corrupt_mask", "waiters_touched",
    )

    #: Always ``False``: classification has one encoding (numpy masks over
    #: the audible set).  Kept as a class attribute, not a slot, for
    #: audits that count transmissions by encoding; they now count zero.
    scalar = False

    def __init__(self, sender: int, frame: Frame, start: float, end: float) -> None:
        self.tx_id = next(_tx_ids)
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        #: nodes within rx range at start (excluding sender), in ascending
        #: node order — the interned per-snapshot tuple, shared
        self.audible: Tuple[int, ...] = ()
        #: same relation as the position service's interned frozenset —
        #: used for the disjointness pre-checks in collision marking
        self.audible_set: FrozenSet[int] = frozenset()
        #: the same relation as the position service's interned int64 array
        #: (read-only; used to fancy-index the channel's radio-state mirrors)
        self.audible_idx: NDArray[np.int64] = _EMPTY_IDX
        #: per-audible-node mask: radio could decode at start
        self.eligible_mask: NDArray[np.bool_] = _EMPTY_MASK
        #: per-audible-node mask: frame already known corrupted there.
        #: ``None`` until the first corruption — most frames never collide,
        #: and the classification fast-path skips the mask ops entirely.
        self.corrupt_mask: Optional[NDArray[np.bool_]] = None
        #: idle-waiters whose busy count this transmission incremented;
        #: ``None`` until the first touch (most frames race no waiter).
        #: May contain duplicates/stale entries — teardown decrements via
        #: idempotent set.discard, so over-appending is harmless.
        self.waiters_touched: Optional[List[int]] = None

    @property
    def duration(self) -> float:
        """Airtime of this transmission in seconds."""
        return self.end - self.start

    def corrupt_everywhere(self) -> None:
        """Mark the frame corrupted at every audible receiver.

        Fault-injection hook: a sender crashing mid-frame truncates the
        transmission, so no receiver decodes it.
        """
        self.corrupt_mask = np.ones(len(self.audible), dtype=bool)


class Channel:
    """Shared broadcast medium connecting all radios."""

    def __init__(
        self,
        sim: Simulator,
        positions: PositionService,
        radios: Dict[int, Radio],
        bitrate: float = BITRATE_BPS,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.sim = sim
        self.positions = positions
        self.radios = radios
        self._bitrate = bitrate
        self.trace = trace
        self._active: Dict[int, Transmission] = {}
        #: fault-injection hook, wired by ``build_network`` only when the
        #: run carries a non-empty plan.  ``None`` costs one local load and
        #: a skipped branch per delivered frame — nothing else changes, so
        #: no-fault runs stay byte-identical (golden-trace enforced).
        self.faults: Optional["FaultInjector"] = None
        self._receivers: Dict[int, Callable[[Frame, int], None]] = {}
        self._tx_complete: Dict[int, Callable[[Frame, Set[int]], None]] = {}
        #: ``fanout(frame, sender, delivery_order)``, once per transmission
        #: that any node decoded (see set_fanout)
        self._fanout: Callable[[Frame, int, List[int]], None]
        self.set_fanout(self._deliver_each)
        #: nodes waiting for their carrier sense to go quiet (wait_for_idle)
        self._idle_waiters: Dict[int, Callable[[], None]] = {}
        #: per-waiter busy bookkeeping: the tx_ids of active transmissions
        #: audible to each registered waiter.  Maintained incrementally —
        #: ``transmit`` adds, ``_finish`` discards, a mobility refresh
        #: re-snapshots — so teardown never scans all waiters with
        #: ``is_busy``.  Invariant (sanitizer-checked): a registered
        #: waiter's set is non-empty iff ``is_busy(waiter)``.
        self._waiter_txs: Dict[int, Set[int]] = {}
        #: registered waiters whose busy set is empty (wake at next finish)
        self._ready_waiters: Set[int] = set()
        positions.add_refresh_listener(self._on_positions_refreshed)
        #: payload size -> airtime memo; the DCF recomputes the airtime on
        #: every attempt and payload sizes come from a handful of frame
        #: shapes, so the memo stays tiny and hits almost always.  The memo
        #: bakes in the bitrate and ``MAC_HEADER_BYTES``, both fixed for
        #: the channel's lifetime.
        self._airtime: Dict[int, float] = {}
        # Write-through radio-state mirror for vectorized delivery
        # classification (see bind_state_mirror).
        self._mirror_len = -1
        self._blocked_until: NDArray[np.float64] = np.empty(0)
        self._rebuild_state_mirror()
        # Statistics
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_missed_asleep = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _rebuild_state_mirror(self) -> None:
        """(Re)build the radio-state mirror array and bind every radio."""
        radios = self.radios
        size = max(radios) + 1 if radios else 0
        self._blocked_until = np.zeros(size, dtype=np.float64)
        for radio in radios.values():
            radio.bind_state_mirror(self._blocked_until)
        self._mirror_len = len(radios)

    def attach(
        self,
        node_id: int,
        on_receive: Optional[Callable[[Frame, int], None]] = None,
        on_tx_complete: Optional[Callable[[Frame, Set[int]], None]] = None,
    ) -> None:
        """Register the MAC callbacks for ``node_id``.

        ``on_receive(frame, sender_id)`` fires for each decoded frame
        (through the default fan-out); ``on_tx_complete(frame,
        delivered_to)`` fires on the sender when its transmission ends,
        with the set of nodes that decoded the frame.
        """
        if on_receive is not None:
            self._receivers[node_id] = on_receive
        if on_tx_complete is not None:
            self._tx_complete[node_id] = on_tx_complete

    @property
    def fanout(self) -> Callable[[Frame, int, List[int]], None]:
        """The receive fan-out :meth:`_finish` calls (see set_fanout)."""
        return self._fanout

    def set_fanout(
        self, fanout: Callable[[Frame, int, List[int]], None],
    ) -> None:
        """Replace the receive fan-out.

        ``fanout(frame, sender_id, delivery_order)`` is called once per
        finished transmission that at least one node decoded, with the
        decoding nodes in ascending order, and must serve them in that
        order.  A MAC family's fan-out serves only its own members, so a
        channel carries one family (see :func:`repro.mac.base.join_fanout`).
        """
        self._fanout = fanout

    def _deliver_each(self, frame: Frame, sender: int,
                      delivery_order: List[int]) -> None:
        """The default fan-out: each node's attached receiver, in order."""
        receivers = self._receivers
        for node in delivery_order:
            receiver = receivers.get(node)
            if receiver is not None:
                receiver(frame, sender)

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------

    def is_busy(self, node_id: int) -> bool:
        """Would ``node_id`` sense the medium busy right now?

        The common case is zero, one or two active transmissions, so the
        scan short-circuits: no set is ever constructed (the position
        service hands out its interned per-snapshot frozensets), a single
        active transmission is answered with one membership probe, and the
        multi-transmission loop returns at the first sender in cs-range.
        """
        active = self._active
        if not active:
            return False
        if node_id in active:
            return True
        cs = self.positions.cs_neighbors(node_id)
        if len(active) == 1:
            (tx,) = active.values()
            return tx.sender in cs
        for tx in active.values():
            if tx.sender in cs:
                return True
        return False

    def wait_for_idle(self, node_id: int, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once ``node_id``'s carrier sense goes quiet.

        One pending wait per node (a new registration replaces the old).
        The callback fires synchronously from the end of transmission
        teardown (:meth:`_finish`) — after deliveries and the sender's
        completion callback — at the first instant ``is_busy(node_id)`` is
        False again.  Waiters are woken in ascending node order.  The
        callback must not start a transmission synchronously (schedule an
        attempt instead): the medium it observes is this instant's.

        Registration snapshots the waiter's busy count — the set of active
        transmissions it can hear — which transmission start/end then
        maintains incrementally, so teardown wakes waiters from a ready
        set instead of scanning every waiter with ``is_busy``.
        """
        waiters = self._idle_waiters
        if node_id in waiters:
            # Re-registration: the busy bookkeeping is already live.
            waiters[node_id] = callback
            return
        waiters[node_id] = callback
        audible: Set[int] = set()
        cs_neighbors = self.positions.cs_neighbors
        for tx in self._active.values():
            sender = tx.sender
            if sender == node_id or sender in cs_neighbors(node_id):
                audible.add(tx.tx_id)
                touched = tx.waiters_touched
                if touched is None:
                    touched = tx.waiters_touched = []
                touched.append(node_id)
        self._waiter_txs[node_id] = audible
        if not audible:
            self._ready_waiters.add(node_id)

    def cancel_idle_wait(self, node_id: int) -> None:
        """Drop a pending :meth:`wait_for_idle` registration (no-op if none)."""
        if self._idle_waiters.pop(node_id, None) is not None:
            self._waiter_txs.pop(node_id, None)
            self._ready_waiters.discard(node_id)

    def _on_positions_refreshed(self) -> None:
        """Mobility refresh: re-snapshot every waiter's busy count.

        The interned cs sets just changed under the incremental counts: a
        waiter may have moved out of (or into) earshot of an active
        sender.  Rebuilding from the fresh sets keeps the count>0 ⟺
        ``is_busy`` invariant; newly-audible transmissions also record the
        waiter so their teardown decrements it (duplicate records are
        fine — the decrement is an idempotent discard).
        """
        waiter_txs = self._waiter_txs
        if not waiter_txs:
            return
        active = self._active
        ready = self._ready_waiters
        cs_neighbors = self.positions.cs_neighbors
        for node_id, audible in waiter_txs.items():
            audible.clear()
            cs = cs_neighbors(node_id)
            for tx in active.values():
                sender = tx.sender
                if sender == node_id or sender in cs:
                    audible.add(tx.tx_id)
                    touched = tx.waiters_touched
                    if touched is None:
                        touched = tx.waiters_touched = []
                    touched.append(node_id)
            if audible:
                ready.discard(node_id)
            else:
                ready.add(node_id)

    def transmission_time(self, payload_bytes: int) -> float:
        """Airtime for a frame carrying ``payload_bytes`` of payload."""
        airtime = self._airtime.get(payload_bytes)
        if airtime is None:
            bits = (payload_bytes + MAC_HEADER_BYTES) * 8
            airtime = self._airtime[payload_bytes] = bits / self._bitrate
        return airtime

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(self, sender_id: int, frame: Frame) -> Transmission:
        """Start transmitting ``frame`` from ``sender_id``.

        The caller (MAC) is responsible for carrier sensing first; starting
        a transmission while one from the same sender is active is an error.
        """
        if sender_id in self._active:
            raise ChannelError(f"node {sender_id} is already transmitting")
        radio = self.radios[sender_id]
        if not radio.is_awake:
            raise ChannelError(f"node {sender_id} tried to transmit while asleep")
        if len(self.radios) != self._mirror_len:
            # A radio registered after construction; rebind the mirrors.
            self._rebuild_state_mirror()

        duration = self.transmission_time(frame.size_bytes)
        now = self.sim.now
        tx = Transmission(sender_id, frame, now, now + duration)
        # The position service's per-snapshot ascending tuple, frozenset
        # and int64 array, shared — no per-transmission allocation for the
        # relation.
        positions = self.positions
        tx.audible = positions.sorted_neighbors(sender_id)
        tx.audible_set = positions.neighbors(sender_id)
        idx = tx.audible_idx = positions.neighbor_index_array(sender_id)
        if idx.size:
            # Radio.can_receive() for all audible nodes at once: one
            # gather from the blocked-until mirror (doze = +inf).
            tx.eligible_mask = self._blocked_until[idx] <= now

        # Mark collisions eagerly where the interference domains of this
        # and every currently active transmission intersect.
        for other in self._active.values():
            self._mark_mutual_corruption(tx, other)

        # Incremental waiter busy counts: this transmission raises the
        # count of every registered waiter that can hear it.
        waiters = self._idle_waiters
        if waiters:
            waiter_txs = self._waiter_txs
            ready = self._ready_waiters
            tx_id = tx.tx_id
            cs = positions.cs_neighbors(sender_id)
            touched: Optional[List[int]] = None
            for node_id in waiters:
                # cs symmetry: node in cs(sender) iff sender in cs(node).
                if node_id in cs or node_id == sender_id:
                    if touched is None:
                        touched = tx.waiters_touched = []
                    touched.append(node_id)
                    waiter_txs[node_id].add(tx_id)
                    ready.discard(node_id)

        self._active[sender_id] = tx
        radio.note_tx(duration)
        self.frames_sent += 1
        if self.trace.enabled:
            self.trace.emit(now, "chan", sender_id, "tx",
                            frame=frame.describe(), duration=duration)
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _mark_mutual_corruption(self, a: Transmission, b: Transmission) -> None:
        """Corrupt each transmission at receivers that can hear both senders.

        Probes the position service's interned cs frozensets and writes
        mask positions directly — overlaps are rare relative to frames, and
        at typical audible-set sizes set probes beat ``np.isin``'s fixed
        overhead by an order of magnitude.  An interned-frozenset
        ``isdisjoint`` pre-check skips the per-node probe loop when the
        interferer's cs domain cannot touch the audible set at all; when
        it can, at least one receiver is certain to be hit, so the mask
        allocation is hoisted out of the loop instead of re-tested on
        every corrupted position.
        """
        positions = self.positions
        for tx, other in ((a, b), (b, a)):
            other_sender = other.sender
            other_cs = positions.cs_neighbors(other_sender)
            audible_set = tx.audible_set
            if (other_sender not in audible_set
                    and other_cs.isdisjoint(audible_set)):
                continue
            corrupt = tx.corrupt_mask
            if corrupt is None:
                # The pre-check guarantees a hit: either the interfering
                # sender is audible here, or its cs set intersects ours.
                corrupt = tx.corrupt_mask = np.zeros(
                    len(tx.audible), dtype=bool)
            for pos, node in enumerate(tx.audible):
                if node in other_cs or node == other_sender:
                    corrupt[pos] = True

    def _finish(self, tx: Transmission) -> None:
        sender = tx.sender
        del self._active[sender]
        radios = self.radios
        radios[sender].end_tx()

        now = self.sim.now
        audible = tx.audible
        delivered: Set[int] = set()
        delivery_order: List[int] = []
        if audible:
            idx = tx.audible_idx
            eligible = tx.eligible_mask
            corrupt = tx.corrupt_mask
            clean = eligible if corrupt is None else eligible & ~corrupt
            # Radio.can_receive() at frame end, one mirror gather:
            # nobody fell asleep or started transmitting mid-frame.
            deliver = clean & (self._blocked_until[idx] <= now)
            # ``audible_idx`` is ascending, so the surviving indices
            # are the sorted delivery order directly — receiver
            # callbacks re-enter the MAC layer, and firing them in
            # node order keeps event scheduling independent of mask
            # layout.
            delivery_order = idx[deliver].tolist()
            n_deliver = len(delivery_order)
            # not eligible at start, or eligible-and-clean but unable to
            # decode at the end -> missed; eligible but corrupted ->
            # collided.  Without corruption every eligible node is clean,
            # so the misses need no mask count (np.count_nonzero goes
            # through numpy's Python-level dispatch on every call).  The
            # counts are int()ed: the frame counters stay Python ints.
            if corrupt is None:
                self.frames_missed_asleep += len(audible) - n_deliver
            else:
                n_eligible = int(np.count_nonzero(eligible))
                n_clean = int(np.count_nonzero(clean))
                self.frames_missed_asleep += (
                    (len(audible) - n_eligible) + (n_clean - n_deliver))
                self.frames_collided += n_eligible - n_clean
            # Fault-plan impairments (loss processes, noise windows) veto
            # deliveries last: the frame reached a listening radio but the
            # impaired link corrupted it.  The veto consults the plan's
            # precomputed time envelope first — outside it no noise window
            # or loss rule can match (and none would have drawn RNG), so
            # the per-receiver calls are skipped wholesale.
            faults = self.faults
            if (faults is not None and delivery_order
                    and faults.veto_from <= now < faults.veto_until):
                drop = faults.drop_delivery
                kept = [node for node in delivery_order
                        if not drop(sender, node, now)]
                delivery_order = kept
            delivered.update(delivery_order)
        self.frames_delivered += len(delivery_order)

        frame = tx.frame
        if delivery_order:
            self._fanout(frame, sender, delivery_order)

        on_complete = self._tx_complete.get(sender)
        if on_complete is not None:
            on_complete(frame, delivered)

        # Busy→idle wake point: this is the only event that can turn a
        # waiter's carrier sense quiet.  Decrement the busy count of every
        # waiter this transmission touched; whoever reaches zero joins the
        # ready set.  A mobility refresh may also have emptied a waiter's
        # count while it waited (moved out of earshot) — those nodes are
        # already in the ready set, so they wake here exactly as the old
        # full ``is_busy`` scan woke them.
        waiters = self._idle_waiters
        if waiters:
            if self._active:
                # The old scan's position queries refreshed a stale
                # snapshot at this instant; keep that trigger (the refresh
                # listener re-snapshots the counts consumed below).
                self.positions.ensure_fresh()
            touched = tx.waiters_touched
            if touched:
                waiter_txs = self._waiter_txs
                ready_set = self._ready_waiters
                tx_id = tx.tx_id
                for node in touched:
                    audible = waiter_txs.get(node)
                    if audible is not None:
                        audible.discard(tx_id)
                        if not audible:
                            ready_set.add(node)
            ready_set = self._ready_waiters
            if ready_set:
                # sorted() snapshots the set: callbacks may re-register a
                # wait (which re-enters the ready set if the medium is
                # idle) without perturbing this round's wake order.
                for node in sorted(ready_set):
                    ready_set.discard(node)
                    callback = waiters.pop(node, None)
                    if callback is not None:
                        self._waiter_txs.pop(node, None)
                        callback()


__all__ = ["Channel", "Transmission", "reset_tx_ids"]
