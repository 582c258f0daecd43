"""The discrete-event simulator.

:class:`Simulator` owns the virtual clock and the event heap.  Protocol
objects schedule callbacks with :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` and may cancel the returned handle.  ``run``
drains the heap until the horizon (or until the queue empties).

Design notes
------------
* The heap stores ``(key, Event)`` tuples rather than bare events:
  every sift comparison then resolves on the ``(time, priority, seq)``
  key tuple entirely in C (``seq`` is unique, so the comparison never
  falls through to the Event object).  A drained run performs ~10 heap
  comparisons per event, so routing them through a Python ``__lt__``
  was one of the largest single overheads in the dispatch loop.  Lazy
  cancellation avoids O(n) heap surgery.
* Time never moves backwards.  Scheduling strictly in the past raises
  :class:`~repro.errors.SchedulingError`; scheduling *at* the current time is
  allowed (same-timestamp FIFO semantics are well defined).
* ``run`` is restartable: calling it with a later horizon resumes where the
  previous call stopped, which the experiment runner uses for periodic
  metric snapshots.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SchedulingError
from repro.sim.events import Event, PRIORITY_NORMAL


class Simulator:
    """Event-driven virtual-time scheduler."""

    def __init__(self) -> None:
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: protocol code reads ``sim.now`` over a million times
        #: per bench-scale run and the descriptor call was pure overhead.
        #: It is written only by the dispatch loop — treat it as read-only.
        self.now = 0.0
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._running = False
        self._processed = 0
        self._cancelled_pending = 0
        self._cancelled_total = 0
        self._fire_hook: Optional[Callable[[Event], None]] = None
        #: ``_note_cancel`` bound once — attaching it to every scheduled
        #: event would otherwise allocate a fresh bound method per event.
        self._note_cancel_cb = self._note_cancel

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* (not cancelled) events still queued.

        Lazy cancellation leaves cancelled entries in the heap until they
        are popped; this gauge subtracts them so observability consumers
        see the true pending count.
        """
        return len(self._heap) - self._cancelled_pending

    @property
    def cancelled_events(self) -> int:
        """Total events cancelled before firing (diagnostics)."""
        return self._cancelled_total

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def set_fire_interceptor(
        self, hook: Optional[Callable[[Event], None]]
    ) -> None:
        """Install ``hook`` to dispatch events instead of ``event.fire()``.

        The hook receives each popped live event and MUST call
        ``event.fire()`` exactly once (the sanitizer and perfbench's layer
        tracer wrap the call).  Pass ``None`` to restore direct dispatch.
        """
        self._fire_hook = hook

    def _note_cancel(self) -> None:
        """Event ``on_cancel`` hook: account one lazily-cancelled entry."""
        self._cancelled_pending += 1
        self._cancelled_total += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        The body duplicates :meth:`schedule_at` rather than delegating: this
        is the single most-called scheduling entry point and the extra call
        frame is measurable in the dispatch-bound profiles.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        event = Event(self.now + delay, callback, args, priority,
                      self._note_cancel_cb)
        heapq.heappush(self._heap, (event._key, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time!r}, clock already at t={self.now!r}"
            )
        event = Event(time, callback, args, priority, self._note_cancel_cb)
        heapq.heappush(self._heap, (event._key, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Fire events in order until ``until`` (inclusive) or queue empty.

        After returning, the clock sits at ``until`` if given, otherwise at
        the time of the last fired event.
        """
        if self._running:
            raise SchedulingError("Simulator.run() is not reentrant")
        self._running = True
        try:
            # Local bindings: this loop dispatches every event of a run, so
            # repeated attribute/global lookups are measurable overhead.
            heap = self._heap
            heappop = heapq.heappop
            # One float compare per event instead of a None test + compare.
            horizon = until if until is not None else float("inf")
            while heap:
                key, event = heap[0]
                if key[0] > horizon:
                    break
                heappop(heap)
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self.now = key[0]
                # Not counted in a loop-local: the timeline recorder samples
                # ``processed_events`` from scheduled callbacks mid-run.
                self._processed += 1
                hook = self._fire_hook
                if hook is None:
                    # Inlined Event.fire(): one fewer function call on the
                    # hottest line in the system.
                    event.fired = True
                    event.callback(*event.args)
                else:
                    hook(event)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False


__all__ = ["Simulator"]
