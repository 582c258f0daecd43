"""Wake-on-idle DCF: poll-model equivalence and wait cancellation.

The DCF no longer re-schedules an attempt event per busy poll; it registers
with ``Channel.wait_for_idle`` and replays the poll model's backoff draws
across the busy gap when woken.  These tests pin the equivalence:

* a hypothesis property drives the real transmitter against a scripted
  busy/idle schedule and checks — event for event — that the bulk-replayed
  deferral counter, the transmit instant, and the rng stream position all
  match an explicit poll-model reference fed the identical draw sequence;
* fault-injection cases check that a node crashing mid-backoff cancels its
  pending wake (no zombie callback) and that a radio dozing off mid-wait
  converts the wait back into a real, deferrable attempt.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DIFS_S
from repro.mac.dcf import DcfTransmitter, TxOutcome
from repro.mac.frames import Frame
from repro.phy.energy import RadioState
from repro.sim.engine import Simulator

from tests.mac.conftest import DummyPacket, MacRig, always_on_factory


# ----------------------------------------------------------------------
# Scripted-channel property test
# ----------------------------------------------------------------------

class _AlwaysAwakeMeter:
    _state = RadioState.IDLE


class _AwakeRadio:
    """Radio stand-in: always awake, accepts the DCF's sleep hook."""

    def __init__(self) -> None:
        self.meter = _AlwaysAwakeMeter()
        self.on_sleep = None


def _merge(windows: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sorted, disjoint busy windows (touching windows merge)."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class ScriptedChannel:
    """Channel stand-in whose busy state follows a scripted schedule.

    Implements exactly the surface the DCF touches: ``transmission_time``,
    ``is_busy``, ``wait_for_idle`` / ``cancel_idle_wait``, ``radios`` and
    ``transmit``.  Like the real channel, it wakes waiters at the first
    idle instant after each busy window ends.
    """

    def __init__(self, sim: Simulator, windows: List[Tuple[float, float]],
                 airtime: float) -> None:
        self.sim = sim
        self.windows = _merge(windows)
        self.airtime = airtime
        self.radios = {0: _AwakeRadio()}
        self.transmit_times: List[float] = []
        self.on_tx_complete = None  # wired to the DCF under test
        self._waiters: Dict[int, object] = {}
        for _, end in self.windows:
            sim.schedule_at(end, self._wake_pass)

    def transmission_time(self, payload_bytes: int) -> float:
        return self.airtime

    def is_busy(self, node_id: int) -> bool:
        now = self.sim.now
        return any(start <= now < end for start, end in self.windows)

    def wait_for_idle(self, node_id, callback) -> None:
        self._waiters[node_id] = callback

    def cancel_idle_wait(self, node_id) -> None:
        self._waiters.pop(node_id, None)

    def transmit(self, node_id, frame) -> None:
        self.transmit_times.append(self.sim.now)
        self.sim.schedule(self.airtime, self._complete, frame)

    def _complete(self, frame) -> None:
        self.on_tx_complete(frame, {frame.dst})

    def _wake_pass(self) -> None:
        if self.is_busy(0):
            return  # window end swallowed by a later overlapping window
        for node in sorted(self._waiters):
            callback = self._waiters.pop(node, None)
            if callback is not None:
                callback()


def _poll_model_reference(seed: int, windows: List[Tuple[float, float]],
                          airtime: float) -> Tuple[float, object]:
    """The pre-wake-on-idle poll model, draw-for-draw.

    Uses a second :class:`DcfTransmitter`'s ``_backoff`` with an
    identically-seeded rng so every draw is bit-identical to the real
    transmitter's (the inlined expovariate is sensitive to operation
    order).  Returns (transmit time, rng state).
    """
    rng = random.Random(seed)
    donor = DcfTransmitter(Simulator(), 0,
                           ScriptedChannel(Simulator(), [], airtime), rng)
    t = DIFS_S + donor._backoff(0)
    while any(start <= t < end for start, end in windows):
        t += donor._backoff(0)
    return t, rng.getstate()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    raw_windows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.15,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=1e-4, max_value=0.05,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=6,
    ),
)
def test_bulk_replay_matches_poll_model(seed, raw_windows):
    """Event-for-event equivalence of the bulk backoff replay.

    On an arbitrary busy/idle schedule, the wake-on-idle transmitter must
    (a) transmit at the exact instant the poll model would have and (b)
    leave its rng stream at the same position — i.e. the replay made
    exactly the draws the eliminated poll events would have made, in
    order, one per busy deferral.
    """
    windows = _merge([(start, start + dur) for start, dur in raw_windows])
    airtime = 0.002

    sim = Simulator()
    channel = ScriptedChannel(sim, windows, airtime)
    rng = random.Random(seed)
    dcf = DcfTransmitter(sim, 0, channel, rng)
    channel.on_tx_complete = dcf.on_tx_complete
    outcomes = []
    dcf.submit(Frame(0, 1, DummyPacket()),
               lambda f, o, d: outcomes.append((o, d)))
    sim.run(until=5.0)

    expected_t, expected_state = _poll_model_reference(seed, windows,
                                                       airtime)
    assert outcomes == [(TxOutcome.DELIVERED, {1})]
    assert channel.transmit_times == [expected_t]
    assert rng.getstate() == expected_state


# ----------------------------------------------------------------------
# Fault-injection cases on the real channel
# ----------------------------------------------------------------------

def _busy_rig():
    """Three always-on nodes; node 0 holds the medium for ~40 ms."""
    rig = MacRig([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)],
                 always_on_factory)
    rig.start()
    rig.macs[0].dcf.submit(
        Frame(0, 1, DummyPacket(size_bytes=5000)), lambda f, o, d: None)
    return rig


def test_crash_mid_backoff_cancels_pending_wake():
    """A crashing node's pending idle wake must die with it.

    Mirrors the fault injector's crash sequence (``mac.halt()`` then
    ``radio.sleep()``) against a node that is mid-backoff, subscribed to
    the channel's busy→idle wake: the subscription must be dropped, no
    attempt may fire afterwards, and the pipeline must end idle.
    """
    rig = _busy_rig()
    dcf2 = rig.macs[2].dcf
    outcomes = []
    rig.sim.schedule(0.01, lambda: dcf2.submit(
        Frame(2, 1, DummyPacket()), lambda f, o, d: outcomes.append(o)))

    def crash():
        assert 2 in rig.channel._idle_waiters  # really was mid-backoff
        rig.macs[2].halt()
        rig.radios[2].sleep()

    rig.sim.schedule(0.02, crash)
    rig.sim.run(until=2.0)
    assert 2 not in rig.channel._idle_waiters
    assert outcomes == []
    assert dcf2.idle
    assert rig.channel.frames_sent == 1  # only node 0's frame went out


def test_radio_sleep_mid_wait_defers():
    """Dozing off mid-wait converts the wake into a deferrable attempt.

    Without a ``cancel_all`` (the ODPM immediate-send corner), a radio
    going to sleep while its DCF waits for idle must unsubscribe and let a
    real attempt fire, whose sleep check completes the submission as
    DEFERRED — exactly what the poll model's next poll would have done.
    """
    rig = _busy_rig()
    dcf2 = rig.macs[2].dcf
    outcomes = []
    rig.sim.schedule(0.01, lambda: dcf2.submit(
        Frame(2, 1, DummyPacket()), lambda f, o, d: outcomes.append(o)))
    rig.sim.schedule(0.02, rig.radios[2].sleep)
    rig.sim.run(until=2.0)
    assert 2 not in rig.channel._idle_waiters
    assert outcomes == [TxOutcome.DEFERRED]
    assert dcf2.idle


def test_idle_wait_counts_and_delivers_after_wake():
    """The deferred sender subscribes, wakes, and still delivers."""
    rig = _busy_rig()
    dcf2 = rig.macs[2].dcf
    outcomes = []
    waiting = []
    rig.sim.schedule(0.01, lambda: dcf2.submit(
        Frame(2, 1, DummyPacket()), lambda f, o, d: outcomes.append(o)))
    rig.sim.schedule(0.02, lambda: waiting.append(
        2 in rig.channel._idle_waiters))
    rig.sim.run(until=2.0)
    assert waiting == [True]
    assert outcomes == [TxOutcome.DELIVERED]
    assert 2 not in rig.channel._idle_waiters
