"""Tests for the bounded MAC transmission queue."""

from repro.mac.frames import Frame
from repro.mac.queue import QueuedFrame, TxQueue


class Payload:
    kind = "data"
    size_bytes = 10


def entry(tag=None):
    return QueuedFrame(Frame(0, 1, Payload()), enqueued_at=0.0,
                       on_failure=tag)


def test_fifo_order():
    q = TxQueue(capacity=10)
    entries = [entry() for _ in range(3)]
    for e in entries:
        q.push(e)
    assert q.pop() is entries[0]
    assert q.pop() is entries[1]
    assert q.pop() is entries[2]


def test_len_and_bool():
    q = TxQueue(capacity=2)
    assert not q
    q.push(entry())
    assert q
    assert len(q) == 1


def test_overflow_drops_oldest_and_fires_failure():
    dropped = []
    q = TxQueue(capacity=2)
    first = QueuedFrame(Frame(0, 1, Payload()), 0.0,
                        on_failure=lambda f: dropped.append(f))
    q.push(first)
    q.push(entry())
    evicted = q.push(entry())
    assert evicted is first
    assert dropped == [first.frame]
    assert len(q) == 2


def test_remove_specific_entry():
    q = TxQueue(capacity=5)
    a, b = entry(), entry()
    q.push(a)
    q.push(b)
    assert q.remove(a) is True
    assert q.remove(a) is False
    assert list(q) == [b]


def test_announcement_flags():
    q = TxQueue(capacity=5)
    a, b = entry(), entry()
    q.push(a)
    q.push(b)
    a.announced = True
    assert q.announced_entries() == [a]
    q.clear_announcements()
    assert q.announced_entries() == []
