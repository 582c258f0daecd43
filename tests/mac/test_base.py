"""Tests for the always-on (no PSM) MAC."""

from repro.mac.frames import BROADCAST, Frame, FrameKind

from tests.mac.conftest import DummyPacket, MacRig, always_on_factory


def make_rig():
    rig = MacRig([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)],
                 always_on_factory)
    rig.start()
    return rig


def test_unicast_delivered_to_destination():
    rig = make_rig()
    packet = DummyPacket()
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=1.0)
    assert (1, packet, 0) in rig.received
    assert (0, packet, 1) in rig.sent


def test_non_destination_neighbor_overhears():
    rig = make_rig()
    packet = DummyPacket()
    rig.macs[1].send(packet, 0)  # node 2 hears 1 -> 0
    rig.sim.run(until=1.0)
    assert (2, packet, 1) in rig.promiscuous


def test_broadcast_delivered_not_overheard():
    rig = make_rig()
    packet = DummyPacket(kind="rreq")
    rig.macs[1].send(packet, BROADCAST)
    rig.sim.run(until=1.0)
    receivers = sorted(n for n, p, _ in rig.received if p is packet)
    assert receivers == [0, 2]
    assert rig.promiscuous == []


def test_link_failure_reported_for_dead_receiver():
    rig = make_rig()
    rig.radios[1].sleep()
    packet = DummyPacket()
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=5.0)
    assert rig.failures == [(0, packet, 1)]


def test_radio_always_awake():
    rig = make_rig()
    rig.sim.run(until=10.0)
    for radio in rig.radios.values():
        assert radio.is_awake
        assert radio.meter.sleep_time == 0.0


def test_counters():
    rig = make_rig()
    unicast = DummyPacket()
    broadcast = DummyPacket(kind="rreq")
    rig.macs[0].send(unicast, 1)
    rig.macs[0].send(broadcast, BROADCAST)
    rig.sim.run(until=1.0)
    assert rig.sent == [(0, unicast, 1), (0, broadcast, BROADCAST)]
    assert rig.failures == []


def _cluster_rig():
    """Five always-on nodes in mutual range, recording every upcall in
    call order as (node, upcall)."""
    rig = MacRig([(x, 50.0) for x in (0.0, 20.0, 40.0, 60.0, 80.0)],
                 always_on_factory)
    calls = []
    for node, mac in rig.macs.items():
        mac.set_upper(
            on_receive=lambda p, s, n=node: calls.append((n, "receive")),
            on_promiscuous=lambda p, s, n=node: calls.append((n, "tap")))
    return rig, calls


def test_always_on_fanout_is_one_call_per_frame():
    rig, calls = _cluster_rig()
    group = rig.channel.fanout.__self__
    assert group.macs == rig.macs
    assert all(node not in rig.channel._receivers for node in rig.macs)
    packet = DummyPacket()
    # Unicast 1 -> 3: the addressee receives, everyone else overhears,
    # in ascending node order.
    rig.channel.fanout(Frame(1, 3, packet, FrameKind.DATA), 1, [0, 2, 3, 4])
    assert calls == [(0, "tap"), (2, "tap"), (3, "receive"), (4, "tap")]
    calls.clear()
    rig.channel.fanout(Frame(2, BROADCAST, packet, FrameKind.DATA), 2,
                       [0, 1, 3, 4])
    assert calls == [(0, "receive"), (1, "receive"), (3, "receive"),
                     (4, "receive")]


def test_always_on_fanout_reads_upcalls_at_call_time():
    """An observer may wrap a MAC's upcall after the network is built."""
    rig, calls = _cluster_rig()
    mac = rig.macs[4]
    inner = mac._on_promiscuous

    def wrapped(packet, sender):
        calls.append((4, "wrapper"))
        inner(packet, sender)

    mac._on_promiscuous = wrapped
    rig.start()
    packet = DummyPacket()
    rig.macs[0].send(packet, 1)
    rig.sim.run(until=1.0)
    assert calls == [(1, "receive"), (2, "tap"), (3, "tap"),
                     (4, "wrapper"), (4, "tap")]
