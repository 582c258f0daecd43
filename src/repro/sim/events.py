"""Event handles for the discrete-event kernel.

An :class:`Event` is a lightweight, cancellable record of a scheduled
callback.  Events compare by ``(time, priority, seq)`` so that

* earlier events fire first,
* among simultaneous events, lower ``priority`` fires first (the kernel uses
  this to order e.g. beacon-boundary bookkeeping before user callbacks), and
* among equal time *and* priority, insertion order is preserved (FIFO),
  which makes runs deterministic.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Tuple

#: Priority for kernel housekeeping that must run before normal events at the
#: same timestamp (e.g. beacon-interval boundaries).
PRIORITY_KERNEL = 0

#: Default priority for protocol events.
PRIORITY_NORMAL = 10

#: Priority for events that must observe the state left by normal events at
#: the same timestamp (e.g. metric sampling).
PRIORITY_LATE = 20

_seq_counter = itertools.count()


class Event:
    """A scheduled callback; compare-sortable and cancellable.

    Cancellation is lazy: the heap entry stays in the queue and is skipped
    when popped.  This keeps cancellation O(1), which matters because MAC
    retry timers and DSR discovery timers are cancelled far more often than
    they fire.

    The ``(time, priority, seq)`` ordering key is frozen at construction
    (``_key``): ``__lt__`` runs on every heap sift and was measurably the
    single hottest comparison in large runs when it rebuilt two tuples per
    call.  All three components are immutable after construction, so the
    precomputed key can never go stale.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "fired", "on_cancel", "_key")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        seq = next(_seq_counter)
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.on_cancel = on_cancel
        self._key = (time, priority, seq)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Cancelling an event that already fired, or cancelling twice, is a
        no-op — protocol code routinely cancels timers defensively (e.g.
        DSR cancels a discovery timer that may have just fired), and only
        genuine cancellations may reach ``on_cancel``.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    def fire(self) -> None:
        """Invoke the callback (kernel use only)."""
        self.fired = True
        self.callback(*self.args)

    # Heap ordering -----------------------------------------------------

    def __lt__(self, other: "Event") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} prio={self.priority} {name} {state}>"


__all__ = [
    "Event",
    "PRIORITY_KERNEL",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]
