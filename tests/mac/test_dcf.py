"""Tests for the DCF (CSMA/CA) transmitter."""

import pytest

from repro.constants import MAC_RETRY_LIMIT
from repro.mac.dcf import DcfTransmitter, TxOutcome
from repro.mac.frames import BROADCAST, Frame

from tests.mac.conftest import DummyPacket, MacRig, always_on_factory


def make_rig(positions=((0.0, 50.0), (100.0, 50.0), (200.0, 50.0))):
    rig = MacRig(list(positions), always_on_factory)
    rig.start()
    return rig


def submit(rig, node, frame, deadline=None):
    outcomes = []
    rig.macs[node].dcf.submit(
        frame, lambda f, o, d: outcomes.append((o, d)), deadline=deadline
    )
    return outcomes


def test_unicast_delivered(sim):
    rig = make_rig()
    outcomes = submit(rig, 0, Frame(0, 1, DummyPacket()))
    rig.sim.run(until=1.0)
    assert outcomes == [(TxOutcome.DELIVERED, {1})]


def test_broadcast_always_counts_as_delivered():
    rig = make_rig()
    outcomes = submit(rig, 1, Frame(1, BROADCAST, DummyPacket()))
    rig.sim.run(until=1.0)
    assert len(outcomes) == 1
    assert outcomes[0][0] is TxOutcome.DELIVERED
    assert outcomes[0][1] == {0, 2}


def test_unicast_to_sleeping_receiver_fails_after_retries():
    rig = make_rig()
    rig.radios[1].sleep()
    outcomes = submit(rig, 0, Frame(0, 1, DummyPacket()))
    rig.sim.run(until=5.0)
    assert outcomes[0][0] is TxOutcome.FAILED
    assert rig.records("dcf", "tx_ok") == []
    [fail] = rig.records("dcf", "tx_fail")
    assert fail.node == 0 and fail.get("attempts") == MAC_RETRY_LIMIT


def test_deadline_defers_when_airtime_does_not_fit():
    rig = make_rig()
    # 200-byte packet at 1 Mbps needs ~1.9 ms; a 1 ms deadline can't fit.
    outcomes = submit(rig, 0, Frame(0, 1, DummyPacket()), deadline=0.001)
    rig.sim.run(until=1.0)
    assert outcomes == [(TxOutcome.DEFERRED, set())]


def test_frames_serialize_per_node():
    rig = make_rig()
    order = []
    for tag in ("first", "second", "third"):
        frame = Frame(0, 1, DummyPacket(label=tag))
        rig.macs[0].dcf.submit(
            frame, lambda f, o, d: order.append(f.packet.label)
        )
    rig.sim.run(until=2.0)
    assert order == ["first", "second", "third"]


def test_busy_medium_defers_attempt():
    rig = make_rig()
    long_frame = Frame(0, 1, DummyPacket(size_bytes=5000))  # ~40 ms airtime
    submit(rig, 0, long_frame)
    # Node 2 (within carrier-sense range of 0) starts once 0 is on the air.
    outcomes = []
    rig.sim.schedule(0.01, lambda: rig.macs[2].dcf.submit(
        Frame(2, 1, DummyPacket()), lambda f, o, d: outcomes.append((o, d))
    ))
    rig.sim.run(until=2.0)
    assert outcomes[0][0] is TxOutcome.DELIVERED
    # Node 2 waited for the medium: its one attempt went out after node
    # 0's frame, and nothing collided.
    [first] = rig.records("dcf", "tx_ok", node=0)
    [second] = rig.records("dcf", "tx_ok", node=2)
    assert second.get("attempts") == 1 and second.time > first.time
    assert rig.channel.frames_collided == 0


def test_cancel_all_silences_pending():
    rig = make_rig()
    outcomes = submit(rig, 0, Frame(0, 1, DummyPacket()))
    rig.macs[0].dcf.cancel_all()
    rig.sim.run(until=1.0)
    assert outcomes == []
    assert rig.macs[0].dcf.idle


def test_idle_property():
    rig = make_rig()
    dcf = rig.macs[0].dcf
    assert dcf.idle
    submit(rig, 0, Frame(0, 1, DummyPacket()))
    assert not dcf.idle
    rig.sim.run(until=1.0)
    assert dcf.idle


def test_sleeping_sender_defers():
    rig = make_rig()
    rig.radios[0].sleep()
    outcomes = submit(rig, 0, Frame(0, 1, DummyPacket()))
    rig.sim.run(until=1.0)
    assert outcomes == [(TxOutcome.DEFERRED, set())]


def test_backoff_grows_with_attempts(rngs):
    rig = make_rig()
    dcf = rig.macs[0].dcf
    base_samples = [dcf._backoff(0) for _ in range(200)]
    grown_samples = [dcf._backoff(4) for _ in range(200)]
    base_mean = sum(base_samples) / len(base_samples)
    grown_mean = sum(grown_samples) / len(grown_samples)
    assert grown_mean > base_mean * 4
