"""Event-driven abstraction of the 802.11 DCF (CSMA/CA) transmit path.

Per node, the :class:`DcfTransmitter` serializes outgoing frames and, for
each one:

1. waits DIFS plus a random backoff slot (desynchronizing nodes that sensed
   the medium idle at the same instant, e.g. at a data-window start),
2. defers while carrier sense reports the medium busy — **wake-on-idle**:
   instead of re-scheduling an attempt event per backoff draw, the
   transmitter registers with :meth:`Channel.wait_for_idle` and, when the
   medium goes quiet, replays the backoff draws the poll model would have
   made across the busy gap in one pass (see :meth:`_resume_from_wait`),
3. transmits, and applies ACK semantics: a unicast frame succeeded iff the
   destination decoded it; otherwise the frame is retried up to the retry
   limit with a new backoff each time,
4. honours a *deadline* (the PSM data-window end): an attempt that could not
   finish **strictly before** the deadline completes with outcome
   ``DEFERRED`` so the PSM MAC can re-announce the frame in the next beacon
   interval.  The window is half-open — ``now + airtime >= deadline``
   defers — because the window-closing beacon event runs at kernel priority
   at the deadline instant, so a frame finishing exactly *at* the deadline
   would land after the window closed.  Both deadline checks (the attempt
   pre-check and the busy-gap draw check) use this same boundary.

Backoff lengths are exponential with mean ``MAC_BACKOFF_MEAN_S`` — the
event-level stand-in for the binary-exponential contention window,
preserving the two properties the results depend on: randomized
desynchronization and a busy medium pushing attempts out in time.  The
wake-on-idle replay draws from the same ``mac:{node}`` stream in the same
poll order, so the contention-timing distribution is unchanged; only the
event count collapses (the bench workload spent ~1.27M attempt events on
48k transmissions under the poll model — a 26:1 ratio this removes).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import log
from typing import Callable, Deque, Optional, Set

from repro.constants import (
    DIFS_S,
    MAC_BACKOFF_GROWTH,
    MAC_BACKOFF_MEAN_S,
    MAC_RETRY_LIMIT,
)
from repro.mac.frames import Frame
from repro.phy.channel import Channel
from repro.phy.energy import RadioState
from repro.sim.events import Event
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACE, TraceSink


#: ``MAC_BACKOFF_GROWTH ** min(exponent, 6)``, precomputed — the backoff
#: runs on every busy deferral and retry, and the float power dominated it.
_BACKOFF_GROWTH_POW = tuple(MAC_BACKOFF_GROWTH ** i for i in range(7))

#: per-retry-level exponential rates, precomputed exactly as the inline
#: expression (``1.0 / (mean * growth**i)``) so the inlined draw in
#: :meth:`DcfTransmitter._backoff` stays bit-identical to
#: ``rng.expovariate``.
_BACKOFF_LAMBD = tuple(
    1.0 / (MAC_BACKOFF_MEAN_S * g) for g in _BACKOFF_GROWTH_POW)


class TxOutcome(Enum):
    """Final disposition of a submitted frame."""

    DELIVERED = "delivered"  # unicast ACKed / broadcast put on air
    FAILED = "failed"        # retry limit exhausted (link considered broken)
    DEFERRED = "deferred"    # could not finish before the deadline


@dataclass
class _Submission:
    frame: Frame
    on_done: Callable[[Frame, TxOutcome, Set[int]], None]
    deadline: Optional[float]
    #: channel airtime for this frame, computed once at submission —
    #: busy deferrals re-run the deadline check on every attempt, and the
    #: frame's size does not change while it is queued.
    airtime: float = 0.0
    attempts: int = 0
    #: next poll-model attempt time while waiting for the medium to go
    #: idle; only meaningful between wait_for_idle and the wake
    next_attempt: float = 0.0


class DcfTransmitter:
    """Serializing CSMA/CA transmit pipeline for one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: Channel,
        rng: random.Random,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.rng = rng
        self.trace = trace
        self._pending: Deque[_Submission] = deque()
        self._current: Optional[_Submission] = None
        #: our Radio, resolved lazily on the first attempt (radios may be
        #: registered with the channel after the MAC stack is built)
        self._radio = None
        self._attempt_event: Optional[Event] = None
        #: True while registered with Channel.wait_for_idle
        self._waiting_idle = False
        #: hot-loop callables bound once — each ``self.channel.is_busy`` /
        #: ``self._attempt`` access would allocate a bound method.
        self._is_busy = channel.is_busy
        self._attempt_cb = self._attempt
        self._idle_cb = self._on_medium_idle

    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self._current is None and not self._pending

    @property
    def queue_depth(self) -> int:
        """Submissions waiting or in flight (observability gauge)."""
        return len(self._pending) + (0 if self._current is None else 1)

    def submit(
        self,
        frame: Frame,
        on_done: Callable[[Frame, TxOutcome, Set[int]], None],
        deadline: Optional[float] = None,
    ) -> None:
        """Queue ``frame`` for CSMA/CA transmission."""
        airtime = self.channel.transmission_time(frame.size_bytes)
        self._pending.append(_Submission(frame, on_done, deadline, airtime))
        if self._current is None:
            self._next()

    def cancel_all(self) -> None:
        """Drop everything (used at beacon boundaries for stale attempts)."""
        if self._attempt_event is not None:
            self._attempt_event.cancel()
            self._attempt_event = None
        if self._waiting_idle:
            self.channel.cancel_idle_wait(self.node_id)
            self._waiting_idle = False
        self._pending.clear()
        self._current = None

    # ------------------------------------------------------------------

    def _backoff(self, exponent: int = 0) -> float:
        """Exponential backoff whose mean doubles with each retry.

        Mirrors the 802.11 contention-window doubling: retransmissions
        spread out in time, de-correlating repeated interference.

        ``exponent`` is the number of *completed, failed* transmissions of
        the current submission — i.e. ``sub.attempts`` read **after** the
        retry path has incremented it.  Both call sites observe this: busy
        deferrals before the first transmission draw at exponent 0 (no
        transmission has failed yet, however many times carrier sense
        deferred), and the k-th retry draws at exponent k.  Keeping the
        increment-then-look-up ordering identical on the busy-deferral and
        retry paths is what makes the wake-on-idle replay's draws land on
        the same growth levels as the poll model's.
        """
        # Inlined ``rng.expovariate(lambd)`` — same float operations in the
        # same order, minus a method call that fires on every deferral.
        lambd = _BACKOFF_LAMBD[exponent if exponent < 6 else 6]
        return -log(1.0 - self.rng.random()) / lambd

    def _next(self) -> None:
        if self._current is not None:
            # A completion callback already submitted (and started) new
            # work; clobbering it here would orphan that submission.
            return
        if not self._pending:
            return
        self._current = self._pending.popleft()
        self._schedule_attempt(DIFS_S + self._backoff())

    def _schedule_attempt(self, delay: float) -> None:
        self._attempt_event = self.sim.schedule(delay, self._attempt_cb)

    def _finish(self, outcome: TxOutcome, delivered: Set[int]) -> None:
        sub = self._current
        assert sub is not None, "_finish with no submission in flight"
        self._current = None
        self._attempt_event = None
        sub.on_done(sub.frame, outcome, delivered)
        self._next()

    def _attempt(self) -> None:
        sub = self._current
        if sub is None:  # cancelled between scheduling and firing
            return
        now = self.sim.now
        deadline = sub.deadline
        if deadline is not None and now + sub.airtime >= deadline:
            # Half-open data window: finishing exactly at the deadline is
            # already outside it (the closing beacon runs first).
            self._finish(TxOutcome.DEFERRED, set())
            return
        radio = self._radio
        if radio is None:
            radio = self._radio = self.channel.radios[self.node_id]
            radio.on_sleep = self._on_radio_sleep
        if radio.meter._state is RadioState.SLEEP:
            # (Radio.is_awake, inlined — this check runs per attempt.)
            # The PSM MAC keeps senders awake; reaching this means the node
            # went to sleep with work queued — defer to the next interval.
            self._finish(TxOutcome.DEFERRED, set())
            return
        if self._is_busy(self.node_id):
            t_next = now + self._backoff(sub.attempts)
            if deadline is not None and t_next + sub.airtime >= deadline:
                # The next poll can no longer fit the frame before the
                # window closes; keep it as a real event so the DEFERRED
                # completion fires at the poll-model time (the PSM MAC
                # must see it before the next beacon re-announcement).
                # Bounded: fires exactly once, then the deadline pre-check
                # completes the submission.
                self._attempt_event = self.sim.schedule_at(  # rcast-lint: disable=R006 -- bounded deadline-expiry reschedule, not a loop
                    t_next, self._attempt_cb)
                return
            sub.next_attempt = t_next
            self._waiting_idle = True
            self.channel.wait_for_idle(self.node_id, self._idle_cb)
            return
        self.channel.transmit(self.node_id, sub.frame)
        # Completion arrives via the channel's tx-complete callback, which
        # the owning MAC routes back into :meth:`on_tx_complete`.

    # ------------------------------------------------------------------
    # Wake-on-idle
    # ------------------------------------------------------------------

    def _resume_from_wait(self) -> None:
        """Replay the poll-model backoff draws across the busy gap.

        While the transmitter was registered with ``wait_for_idle`` its
        carrier sense stayed busy (the channel wakes waiters at the first
        transmission end that quiets their medium), so every poll the old
        model would have run before ``now`` would have sensed busy: draw
        its backoff from the same rng stream and move on.  The
        first poll time at or after ``now`` becomes a real attempt event
        again — it re-checks deadline, sleep and carrier sense exactly as
        a scheduled poll would have.
        """
        sub = self._current
        self._waiting_idle = False
        if sub is None:
            return
        now = self.sim.now
        t_next = sub.next_attempt
        deadline = sub.deadline
        airtime = sub.airtime
        # The exponent is fixed across the gap, so every replayed draw
        # uses the same growth level.
        backoff = self._backoff
        exponent = sub.attempts
        while t_next < now:
            t_next += backoff(exponent)
            if deadline is not None and t_next + airtime >= deadline:
                # This draw's attempt cannot fit the window; stop replaying
                # and let the real event defer (at the poll time, or now if
                # the poll time is already behind the clock).
                break
        if t_next < now:
            t_next = now
        self._attempt_event = self.sim.schedule_at(t_next, self._attempt_cb)

    def _on_medium_idle(self) -> None:
        """Channel callback: our carrier sense just went quiet."""
        if not self._waiting_idle:
            return  # stale wake (cancel_all raced with the wake pass)
        self._resume_from_wait()

    def _on_radio_sleep(self) -> None:
        """Radio hook: our radio dozed off while we may be waiting.

        The poll model kept polling through a sleeping radio and completed
        with ``DEFERRED`` at the first poll after the doze transition; to
        match, a pending idle-wait is converted back into a real attempt
        event, whose sleep check then defers (or transmits, if the radio
        was woken again before the poll time).
        """
        if not self._waiting_idle:
            return
        self.channel.cancel_idle_wait(self.node_id)
        self._resume_from_wait()

    # ------------------------------------------------------------------

    def on_tx_complete(self, frame: Frame, delivered: Set[int]) -> None:
        """Channel callback: our transmission finished."""
        sub = self._current
        if sub is None or sub.frame is not frame:
            return  # stale completion after cancel_all()
        if frame.is_broadcast or frame.dst in delivered:
            if self.trace.enabled:
                self.trace.emit(self.sim.now, "dcf", self.node_id, "tx_ok",
                                frame=frame.describe(),
                                attempts=sub.attempts + 1)
            self._finish(TxOutcome.DELIVERED, delivered)
            return
        sub.attempts += 1
        if sub.attempts >= MAC_RETRY_LIMIT:
            if self.trace.enabled:
                self.trace.emit(self.sim.now, "dcf", self.node_id, "tx_fail",
                                frame=frame.describe(),
                                attempts=sub.attempts)
            self._finish(TxOutcome.FAILED, delivered)
            return
        self._schedule_attempt(self._backoff(sub.attempts))


__all__ = ["DcfTransmitter", "TxOutcome"]
