"""Tests for ODPM's neighbor-mode belief mechanics in the PSM MAC."""

import pytest

from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import PowerMode

from tests.mac.conftest import DummyPacket, make_psm_rig

LINE3 = [(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)]


def odpm_rig(**kwargs):
    return make_psm_rig(LINE3, power_manager_factory=OdpmPowerManager,
                        tap_in_am=True, **kwargs)


def sent_without_immediate_attempt(rig, node=0):
    """``node`` announced its frame before any transmission attempt of
    it completed: the frame took the ATIM path from the start."""
    announced = rig.records("atim", "advertise", node)
    return bool(announced) and all(
        record.time > announced[0].time
        for record in rig.trace.filter("dcf", node))


def test_belief_expires_after_ttl():
    """A belief is usable for PSM_MODE_BELIEF_TTL_S (2 s)."""
    rig = odpm_rig()
    rig.start()
    rig.macs[0]._mode_beliefs[1] = (PowerMode.AM, 0.0)
    rig.sim.run(until=1.9)
    assert rig.macs[0]._believes_am(1)
    rig.sim.run(until=2.1)
    assert not rig.macs[0]._believes_am(1)


def test_no_belief_means_no_immediate_send():
    rig = odpm_rig()
    rig.start()
    rig.macs[0].power.note_event("rrep", 0.0)  # sender is AM
    packet = DummyPacket()
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(packet, 1))
    rig.sim.run(until=1.0)
    assert sent_without_immediate_attempt(rig)
    assert (1, packet, 0) in rig.received  # delivered via the ATIM path


def test_ps_belief_blocks_immediate_send():
    rig = odpm_rig()
    rig.start()
    rig.macs[0].power.note_event("rrep", 0.0)
    rig.macs[0]._mode_beliefs[1] = (PowerMode.PS, 0.0)
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(DummyPacket(), 1))
    rig.sim.run(until=1.0)
    assert sent_without_immediate_attempt(rig)


def test_ps_sender_never_sends_immediately_even_with_am_belief():
    rig = odpm_rig()
    rig.start()
    # Sender is in PS mode (no events noted).
    rig.macs[0]._mode_beliefs[1] = (PowerMode.AM, 0.0)
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(DummyPacket(), 1))
    rig.sim.run(until=1.0)
    assert sent_without_immediate_attempt(rig)


def test_failed_immediate_send_clears_belief():
    rig = odpm_rig()
    rig.start()
    rig.macs[0].power.note_event("rrep", 0.0)
    rig.macs[0]._mode_beliefs[1] = (PowerMode.AM, 0.0)  # wrong: 1 is PS
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(DummyPacket(), 1))
    rig.sim.run(until=1.0)
    # The immediate attempt failed, and the frame fell back to an
    # announcement.
    [failed] = rig.records("dcf", "tx_fail", node=0)
    assert rig.records("atim", "advertise", node=0)[0].time > failed.time
    assert not rig.macs[0]._believes_am(1)


def test_beliefs_learned_from_received_frames():
    rig = odpm_rig()
    rig.start()
    # Node 1 goes AM and sends to node 0; node 0 learns 1's mode from the
    # frame's PwrMgt bit.
    rig.macs[1].power.note_event("rrep", 0.0)
    rig.macs[1].send(DummyPacket(), 0)
    rig.sim.run(until=1.0)
    mode, _ = rig.macs[0]._mode_beliefs[1]
    assert mode is PowerMode.AM
