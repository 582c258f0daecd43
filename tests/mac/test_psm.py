"""Tests for the PSM MAC: beacon intervals, ATIM announcements, sleeping."""

import math

import pytest

from repro.constants import POWER_SLEEP_W, PSM_MAX_ANNOUNCEMENTS
from repro.core.policy import (
    NoOverhearing,
    RcastPolicy,
    UnconditionalOverhearing,
)
from repro.errors import ConfigurationError
from repro.mac.frames import BROADCAST
from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import AlwaysPs, PowerMode
from repro.network import SimulationConfig

from tests.mac.conftest import DummyPacket, make_psm_rig

LINE3 = [(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)]


def test_unicast_delivered_in_next_interval():
    rig = make_psm_rig(LINE3)
    packet = DummyPacket()
    rig.start()
    rig.sim.run(until=0.1)  # mid-interval
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=1.0)
    assert (1, packet, 0) in rig.received
    # The delivery must have waited for the next beacon interval.
    assert rig.records("atim", "advertise", node=0)


def test_idle_node_sleeps_after_atim_window():
    rig = make_psm_rig(LINE3, beacon_interval=0.25, atim_window=0.05)
    rig.run(until=10.0)
    for node in rig.radios.values():
        node.meter.finalize(rig.sim.now)
        # Awake only for ATIM windows: 20% of the time.
        assert node.meter.awake_time == pytest.approx(2.0, abs=0.1)
        assert node.meter.sleep_time == pytest.approx(8.0, abs=0.1)


def test_idle_network_energy_matches_paper_formula():
    """E = P_awake * T * 0.2 + P_sleep * T * 0.8 for untouched PS nodes."""
    rig = make_psm_rig(LINE3)
    rig.run(until=10.0)
    for radio in rig.radios.values():
        expected = 1.15 * 2.0 + POWER_SLEEP_W * 8.0
        assert radio.energy_joules() == pytest.approx(expected, rel=0.05)


def test_sender_and_receiver_awake_others_sleep_no_overhearing():
    rig = make_psm_rig(LINE3, sender_policy_cls=NoOverhearing)
    rig.start()
    rig.macs[0].send(DummyPacket(size_bytes=20000), 1)  # ~160 ms airtime
    states = []
    rig.sim.schedule(0.1, lambda: states.extend(
        (rig.radios[0].is_awake, rig.radios[1].is_awake,
         rig.radios[2].is_awake)
    ))
    rig.sim.run(until=0.4)
    # Mid data window of the first interval: 0 and 1 awake, 2 asleep.
    assert states == [True, True, False]


def test_unconditional_overhearing_keeps_neighbor_awake():
    rig = make_psm_rig(LINE3, sender_policy_cls=UnconditionalOverhearing)
    rig.start()
    packet = DummyPacket()
    rig.macs[1].send(packet, 0)  # node 2 should overhear
    rig.sim.run(until=1.0)
    assert (2, packet, 1) in rig.promiscuous


def test_no_overhearing_policy_never_taps():
    rig = make_psm_rig(LINE3, sender_policy_cls=NoOverhearing)
    rig.start()
    rig.macs[1].send(DummyPacket(), 0)
    rig.sim.run(until=1.0)
    assert rig.promiscuous == []


def test_rerr_overheard_unconditionally_under_rcast():
    rig = make_psm_rig(LINE3, sender_policy_cls=RcastPolicy)
    rig.start()
    packet = DummyPacket(kind="rerr")
    rig.macs[1].send(packet, 0)
    rig.sim.run(until=1.0)
    assert (2, packet, 1) in rig.promiscuous


def test_broadcast_reaches_all_neighbors():
    rig = make_psm_rig(LINE3)
    rig.start()
    packet = DummyPacket(kind="rreq")
    rig.macs[1].send(packet, BROADCAST)
    rig.sim.run(until=1.0)
    receivers = sorted(n for n, p, _ in rig.received if p is packet)
    assert receivers == [0, 2]


def test_failed_unicast_reports_link_failure():
    # Receiver out of range entirely (distance 400 > 150).
    rig = make_psm_rig([(0.0, 50.0), (400.0, 50.0)])
    rig.start()
    packet = DummyPacket()
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=5.0)
    assert (0, packet, 1) in rig.failures


def test_deferred_frame_reannounced_next_interval():
    """A frame too big for one data window is re-announced, not dropped."""
    rig = make_psm_rig(LINE3, beacon_interval=0.25, atim_window=0.05)
    rig.start()
    # ~30000 bytes at 1 Mbps = 240 ms > 200 ms data window: never fits.
    packet = DummyPacket(size_bytes=30000)
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=2.0)
    assert (0, packet, 1) not in rig.failures
    # Re-announced repeatedly.
    assert len(rig.records("atim", "advertise", node=0)) >= 4


def test_odpm_am_node_stays_awake_entire_interval():
    rig = make_psm_rig(LINE3, power_manager_factory=OdpmPowerManager)
    rig.start()
    rig.macs[2].power.note_event("rrep", 0.0)  # AM for 5 s
    states = []
    rig.sim.schedule(0.2, lambda: states.append(rig.radios[2].is_awake))
    rig.sim.schedule(1.2, lambda: states.append(rig.radios[2].is_awake))
    rig.sim.schedule(6.2, lambda: states.append(rig.radios[2].is_awake))
    rig.sim.run(until=7.0)
    assert states == [True, True, False]


def test_odpm_immediate_send_to_believed_am_neighbor():
    rig = make_psm_rig(LINE3, power_manager_factory=OdpmPowerManager,
                       tap_in_am=True)
    rig.start()
    # Both nodes AM, and 0 learns 1's mode from a received frame.
    rig.macs[0].power.note_event("rrep", 0.0)
    rig.macs[1].power.note_event("rrep", 0.0)
    rig.macs[0]._mode_beliefs[1] = (PowerMode.AM, 0.0)
    packet = DummyPacket()
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(packet, 1))
    rig.sim.run(until=0.2)  # still inside the first beacon interval
    assert (1, packet, 0) in rig.received
    # Sent after the ATIM window closed, without an announcement.
    assert rig.records("atim", "advertise", node=0) == []


def test_odpm_wrong_belief_falls_back_to_atim_path():
    rig = make_psm_rig(LINE3, power_manager_factory=OdpmPowerManager)
    rig.start()
    rig.macs[0].power.note_event("rrep", 0.0)  # sender AM
    # Wrong belief: node 1 is actually PS and will sleep after the window.
    rig.macs[0]._mode_beliefs[1] = (PowerMode.AM, 0.0)
    packet = DummyPacket()
    rig.sim.schedule(0.06, lambda: rig.macs[0].send(packet, 1))
    rig.sim.run(until=1.0)
    # The immediate send failed in the first interval; the frame was then
    # announced in the next one.
    [failed] = rig.records("dcf", "tx_fail", node=0)
    [announced] = rig.records("atim", "advertise", node=0)
    assert failed.time < 0.25 <= announced.time
    assert announced.get("dst") == 1
    assert (1, packet, 0) in rig.received  # delivered via the ATIM path
    assert (0, packet, 1) not in rig.failures


def test_mode_beliefs_updated_from_announcements():
    rig = make_psm_rig(LINE3)
    rig.start()
    rig.macs[0].send(DummyPacket(), 1)
    rig.sim.run(until=0.6)
    assert 0 in rig.macs[1]._mode_beliefs
    mode, _ = rig.macs[1]._mode_beliefs[0]
    assert mode is PowerMode.PS


def test_atim_window_validation():
    """PsmMac trusts its timing; the config checks it."""
    with pytest.raises(ConfigurationError, match="atim_window"):
        SimulationConfig(beacon_interval=0.1, atim_window=0.2)
    with pytest.raises(ConfigurationError, match="atim_window"):
        SimulationConfig(beacon_interval=0.1, atim_window=0.1)


def test_interval_counters():
    rig = make_psm_rig(LINE3)
    rig.run(until=2.5)  # 10 intervals
    decisions = (rig.records("psm", "sleep", node=0)
                 + rig.records("psm", "awake", node=0))
    assert len(decisions) == 10


def test_one_announcement_per_destination():
    """802.11 PSM semantics: one ATIM covers all frames to one receiver."""
    rig = make_psm_rig(LINE3)
    rig.start()
    for i in range(5):
        rig.macs[1].send(DummyPacket(label=str(i)), 0)
    rig.sim.run(until=0.06)
    [announcement] = rig.records("atim", "advertise", node=1)
    assert announcement.get("frames") == 5


def test_announcement_budget_limits_destinations_per_window():
    """A hub with frames for 9 neighbors announces PSM_MAX_ANNOUNCEMENTS
    (8) of them in the first ATIM window and the ninth in the next."""
    spokes = [(500.0 + 100.0 * math.cos(2 * math.pi * k / 9),
               150.0 + 100.0 * math.sin(2 * math.pi * k / 9))
              for k in range(9)]
    rig = make_psm_rig([(500.0, 150.0)] + spokes)
    rig.start()
    for dst in range(1, 10):
        rig.macs[0].send(DummyPacket(), dst)
    rig.sim.run(until=0.06)  # first ATIM window: the budget's worth
    assert (len(rig.records("atim", "advertise", node=0))
            == PSM_MAX_ANNOUNCEMENTS == 8)
    rig.sim.run(until=0.31)  # second window covers the last destination
    assert len(rig.records("atim", "advertise", node=0)) == 9


def test_strongest_level_wins_within_one_atim():
    """A RERR (unconditional) queued with data (randomized) for the same
    receiver makes the single per-destination ATIM unconditional."""
    rig = make_psm_rig(LINE3, sender_policy_cls=RcastPolicy)
    rig.start()
    data = DummyPacket(kind="data")
    rerr = DummyPacket(kind="rerr")
    rig.macs[1].send(data, 0)
    rig.macs[1].send(rerr, 0)
    rig.sim.run(until=1.0)
    [announcement] = rig.records("atim", "advertise", node=1)
    assert announcement.get("level") == "UNCONDITIONAL"
    # Node 2 overheard BOTH frames (it stayed awake unconditionally and
    # elected to overhear node 1's traffic for the interval).
    tapped = [p for n, p, s in rig.promiscuous if n == 2]
    assert rerr in tapped and data in tapped


def test_queue_overflow_drops_without_link_failure():
    rig = make_psm_rig([(0.0, 50.0), (400.0, 50.0)], queue_capacity=2)
    rig.start()
    packets = [DummyPacket(label=str(i)) for i in range(4)]
    for p in packets:
        rig.macs[0].send(p, 1)
    rig.sim.run(until=0.01)
    # Two oldest were evicted on overflow — reported as drops, not as link
    # failures (a congestion drop must not trigger route maintenance).
    dropped = [p for n, p in rig.dropped]
    assert packets[0] in dropped and packets[1] in dropped
    assert rig.failures == []


def test_clock_offset_shifts_windows():
    """A node with a late clock misses ATIMs sent at the true boundary."""
    rig = make_psm_rig(LINE3)
    # Give node 2 a late clock manually (half a window late).
    rig.macs[2].clock_offset = 0.03
    rig.macs[2]._started = False
    rig.macs[2]._interval_start = float("-inf")
    rig.start()
    packet = DummyPacket(kind="rerr")  # unconditional: node 2 would overhear
    rig.macs[1].send(packet, 0)
    rig.sim.run(until=1.0)
    # Announcements from node 1 land before node 2's window opens.
    assert rig.macs[2].missed_announcements >= 1


def test_zero_offset_misses_nothing():
    rig = make_psm_rig(LINE3)
    rig.start()
    rig.macs[1].send(DummyPacket(), 0)
    rig.sim.run(until=1.0)
    assert all(m.missed_announcements == 0 for m in rig.macs.values())


def test_clock_offset_validation():
    """A node's clock offset is drawn from [0, clock_jitter), and the
    config keeps the jitter below the beacon interval."""
    with pytest.raises(ConfigurationError, match="clock_jitter"):
        SimulationConfig(clock_jitter=0.25)  # == the beacon interval
