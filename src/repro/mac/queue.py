"""Bounded FIFO transmission queue used by the MAC layers."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, List, Optional

from repro.mac.frames import Frame


@dataclass
class QueuedFrame:
    """A frame waiting for the medium, with its completion callbacks."""

    frame: Frame
    enqueued_at: float
    on_success: Optional[Callable[[Frame], None]] = None
    on_failure: Optional[Callable[[Frame], None]] = None
    attempts: int = 0
    #: set by PSM when the frame was announced in the current ATIM window
    announced: bool = False


class TxQueue:
    """Bounded FIFO of :class:`QueuedFrame`.

    On overflow the *oldest* entry is dropped (drop-head: stale packets are
    the least useful ones in a MANET) and its failure callback fires.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._queue: Deque[QueuedFrame] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[QueuedFrame]:
        return iter(self._queue)

    def push(self, entry: QueuedFrame) -> Optional[QueuedFrame]:
        """Enqueue; returns the evicted entry if the queue was full."""
        evicted = None
        if len(self._queue) >= self.capacity:
            evicted = self._queue.popleft()
            if evicted.on_failure is not None:
                evicted.on_failure(evicted.frame)
        self._queue.append(entry)
        return evicted

    def pop(self) -> QueuedFrame:
        """Dequeue the head entry."""
        return self._queue.popleft()

    def remove(self, entry: QueuedFrame) -> bool:
        """Remove a specific entry; True when it was present."""
        try:
            self._queue.remove(entry)
            return True
        except ValueError:
            return False

    def announced_entries(self) -> List[QueuedFrame]:
        """Entries marked as announced in the current beacon interval."""
        return [e for e in self._queue if e.announced]

    def clear_announcements(self) -> None:
        """Reset the announced flag on all entries (new beacon interval)."""
        for entry in self._queue:
            entry.announced = False


__all__ = ["QueuedFrame", "TxQueue"]
