"""Tests for the shared wireless channel."""

import pytest

from repro.errors import ChannelError, ConfigurationError
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.network import SimulationConfig
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


class FakePacket:
    """Minimal packet with a size."""

    kind = "data"

    def __init__(self, size_bytes=100):
        self.size_bytes = size_bytes


class FakeFrame:
    """Minimal frame understood by the channel."""

    def __init__(self, src, dst, size_bytes=100):
        self.src = src
        self.dst = dst
        self.packet = FakePacket(size_bytes)
        self.size_bytes = size_bytes
        self.is_broadcast = dst == -1

    def describe(self):
        return f"fake {self.src}->{self.dst}"


def make_channel(positions, tx_range=150.0, cs_range=300.0, bitrate=1e6):
    sim = Simulator()
    arena = Arena(max(x for x, _ in positions) + 100.0, 200.0)
    model = StaticPlacement(list(positions), arena)
    service = PositionService(sim, model, tx_range=tx_range, cs_range=cs_range)
    radios = {i: Radio(sim, i) for i in range(len(positions))}
    channel = Channel(sim, service, radios, bitrate=bitrate)
    return sim, channel, radios


def collect_rx(channel, node_ids):
    """Attach recording receivers; returns the shared inbox."""
    inbox = []
    for node in node_ids:
        channel.attach(node, lambda f, s, n=node: inbox.append((n, f, s)))
    return inbox


def test_transmission_time():
    _, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0)], bitrate=1e6)
    # 100 bytes + the 34-byte MAC header = 1072 bits at 1 Mbps -> 1.072 ms.
    assert channel.transmission_time(100) == pytest.approx(1072e-6)


def test_unicast_delivery_in_range():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0)])
    inbox = collect_rx(channel, [0, 1])
    frame = FakeFrame(0, 1)
    sim.schedule(0.0, channel.transmit, 0, frame)
    sim.run()
    assert inbox == [(1, frame, 0)]
    assert channel.frames_delivered == 1


def test_no_delivery_out_of_range():
    sim, channel, _ = make_channel([(0.0, 50.0), (500.0, 50.0)])
    inbox = collect_rx(channel, [0, 1])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1))
    sim.run()
    assert inbox == []


def test_broadcast_reaches_all_in_range():
    sim, channel, _ = make_channel(
        [(0.0, 50.0), (100.0, 50.0), (140.0, 50.0), (600.0, 50.0)]
    )
    inbox = collect_rx(channel, [0, 1, 2, 3])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, -1))
    sim.run()
    receivers = sorted(n for n, _, _ in inbox)
    assert receivers == [1, 2]  # node 3 is out of range


def test_sleeping_radio_misses_frame():
    sim, channel, radios = make_channel([(0.0, 50.0), (100.0, 50.0)])
    inbox = collect_rx(channel, [0, 1])
    radios[1].sleep()
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1))
    sim.run()
    assert inbox == []
    assert channel.frames_missed_asleep == 1


def test_radio_falling_asleep_mid_frame_misses():
    sim, channel, radios = make_channel([(0.0, 50.0), (100.0, 50.0)])
    inbox = collect_rx(channel, [0, 1])
    frame = FakeFrame(0, 1, size_bytes=1000)  # 8 ms at 1 Mbps
    sim.schedule(0.0, channel.transmit, 0, frame)
    sim.schedule(0.004, radios[1].sleep)
    sim.run()
    assert inbox == []


@pytest.mark.parametrize("receivers", [3, 12])
def test_corrupt_everywhere_mid_frame_delivers_nothing(receivers):
    """A sender crashing mid-frame (the fault injector's hook) is heard
    by nobody: every eligible receiver's copy is collided, the dozing
    one's is missed, and the three outcomes add up to the audible set."""
    positions = [(0.0, 50.0)] + [(10.0 * k, 50.0)
                                 for k in range(1, receivers + 1)]
    sim, channel, radios = make_channel(positions)
    inbox = collect_rx(channel, range(len(positions)))
    done = []
    channel.attach(0, lambda f, s: None, lambda f, d: done.append(d))
    radios[1].sleep()
    tx = channel.transmit(0, FakeFrame(0, -1, size_bytes=1000))
    assert len(tx.audible) == receivers
    sim.schedule(tx.duration / 2, tx.corrupt_everywhere)
    sim.run()
    assert inbox == []
    assert done == [set()]
    assert channel.frames_delivered == 0
    assert channel.frames_collided == receivers - 1
    assert channel.frames_missed_asleep == 1
    assert (channel.frames_delivered + channel.frames_missed_asleep
            + channel.frames_collided) == len(tx.audible)


def test_collision_when_two_senders_overlap():
    # 0 and 2 both in range of 1; they transmit simultaneously.
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)])
    inbox = collect_rx(channel, [0, 1, 2])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1))
    sim.schedule(0.0001, channel.transmit, 2, FakeFrame(2, 1))
    sim.run()
    delivered_to_1 = [entry for entry in inbox if entry[0] == 1]
    assert delivered_to_1 == []
    assert channel.frames_collided >= 1


def test_no_collision_when_senders_far_apart():
    # Four nodes: 0->1 at x=0/100; 4 nodes; senders 0 and 3 are ~700 apart.
    sim, channel, _ = make_channel(
        [(0.0, 50.0), (100.0, 50.0), (700.0, 50.0), (800.0, 50.0)]
    )
    inbox = collect_rx(channel, [0, 1, 2, 3])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1))
    sim.schedule(0.0, channel.transmit, 3, FakeFrame(3, 2))
    sim.run()
    receivers = sorted(n for n, _, _ in inbox)
    assert receivers == [1, 2]


def test_tx_complete_reports_delivery_set():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0)])
    done = []
    channel.attach(0, lambda f, s: None, lambda f, d: done.append((f, d)))
    channel.attach(1, lambda f, s: None)
    frame = FakeFrame(0, 1)
    sim.schedule(0.0, channel.transmit, 0, frame)
    sim.run()
    assert done == [(frame, {1})]


def test_is_busy_carrier_sense():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0), (250.0, 50.0)])
    states = {}

    def probe():
        states["self"] = channel.is_busy(0)      # transmitting itself
        states["near"] = channel.is_busy(2)      # within 300 m cs range
        states["far"] = channel.is_busy(1)       # also near (100 m)

    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1, size_bytes=1000))
    sim.schedule(0.001, probe)
    sim.run()
    assert states == {"self": True, "near": True, "far": True}
    assert not channel.is_busy(0)  # after completion


def test_is_busy_false_when_out_of_cs_range():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0), (900.0, 50.0)])
    states = {}
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1, size_bytes=1000))
    sim.schedule(0.001, lambda: states.update(far=channel.is_busy(2)))
    sim.run()
    assert states == {"far": False}


def test_transmit_while_already_transmitting_raises():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0)])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1, size_bytes=1000))

    def second():
        with pytest.raises(ChannelError):
            channel.transmit(0, FakeFrame(0, 1))

    sim.schedule(0.001, second)
    sim.run()


def test_transmit_while_asleep_raises():
    sim, channel, radios = make_channel([(0.0, 50.0), (100.0, 50.0)])
    radios[0].sleep()
    with pytest.raises(ChannelError):
        channel.transmit(0, FakeFrame(0, 1))


def test_bad_bitrate_rejected():
    """Channel trusts its bit rate; the config checks it."""
    with pytest.raises(ConfigurationError, match="bitrate"):
        SimulationConfig(bitrate=0.0)


def test_half_duplex_receiver_transmitting_misses():
    sim, channel, _ = make_channel(
        [(0.0, 50.0), (100.0, 50.0), (200.0, 50.0), (1000.0, 50.0)]
    )
    inbox = collect_rx(channel, [0, 1, 2])
    # Node 1 starts its own long transmission, then node 0 sends to it.
    sim.schedule(0.0, channel.transmit, 1, FakeFrame(1, 2, size_bytes=2000))
    sim.schedule(0.001, channel.transmit, 0, FakeFrame(0, 1))
    sim.run()
    assert not any(n == 1 for n, _, _ in inbox)


def test_three_way_overlap_all_corrupted():
    """Three mutually-audible simultaneous transmissions corrupt each
    other at every shared receiver."""
    sim, channel, _ = make_channel(
        [(0.0, 50.0), (100.0, 50.0), (200.0, 50.0), (100.0, 150.0)]
    )
    inbox = collect_rx(channel, [0, 1, 2, 3])
    sim.schedule(0.0, channel.transmit, 0, FakeFrame(0, 1))
    sim.schedule(0.0001, channel.transmit, 2, FakeFrame(2, 1))
    sim.schedule(0.0002, channel.transmit, 3, FakeFrame(3, 1))
    sim.run()
    assert not any(n == 1 for n, _, _ in inbox)
    assert channel.frames_collided >= 3


def test_sequential_transmissions_do_not_collide():
    sim, channel, _ = make_channel([(0.0, 50.0), (100.0, 50.0)])
    inbox = collect_rx(channel, [0, 1])
    frame_a = FakeFrame(0, 1, size_bytes=100)  # 0.8 ms
    frame_b = FakeFrame(0, 1, size_bytes=100)
    sim.schedule(0.0, channel.transmit, 0, frame_a)
    sim.schedule(0.002, channel.transmit, 0, frame_b)  # after A finishes
    sim.run()
    assert [f for _, f, _ in inbox] == [frame_a, frame_b]
    assert channel.frames_collided == 0
