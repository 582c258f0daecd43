"""Property tests pinning the epoch-batched machinery to per-node semantics.

Two independent pins:

* **PSM epoch batching** — a shared :class:`EpochScheduler` (one kernel
  event per epoch per clock-offset group) must be observationally
  indistinguishable from giving every MAC its own private scheduler
  (singleton groups: exactly the old 3-events-per-node-per-interval
  model).  Random offset grids, random traffic and crash/recovery
  mid-epoch all preserve deliveries, energy accounting and RNG draw
  sequences — the only legal divergence is the kernel event count.

* **Counting channel wake** — the incrementally-maintained per-waiter
  busy sets must agree with a from-scratch recomputation at every
  mobility refresh boundary, and waiters must only ever be woken at an
  instant where their carrier sense is genuinely quiet, even when
  waypoint mobility moves them out of (or into) earshot of active
  senders between registration and teardown.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.policy import RcastPolicy
from repro.core.rcast import RcastManager
from repro.mac.epoch import EpochScheduler
from repro.mac.power import AlwaysPs
from repro.mac.psm import PsmMac
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, derived_stream

from tests.mac.conftest import DummyPacket, MacRig

BEACON = 0.1
ATIM = 0.025

#: Clock offsets come from a quarter-interval grid so Hypothesis can
#: produce both the perfectly-synchronized single group and genuinely
#: split groups (plus singleton stragglers) within a few examples.
OFFSET_GRID = (0.0, 0.25 * BEACON, 0.5 * BEACON, 0.75 * BEACON)

#: 5 nodes in a 100 m line: adjacent nodes in tx range, everyone in a
#: connected component, multi-hop enough for overhearing to matter.
LINE5 = [(float(100 * i), 50.0) for i in range(5)]


def _psm_epoch_factory(offsets, shared: bool):
    """A MacRig factory building PsmMacs on a shared or private scheduler."""
    cell: Dict[str, EpochScheduler] = {}

    def factory(rig: MacRig, node_id: int) -> PsmMac:
        epochs = None
        if shared:
            epochs = cell.get("epochs")
            if epochs is None:
                epochs = cell["epochs"] = EpochScheduler(rig.sim)
        rcast = RcastManager(
            node_id, rig.sim, rig.positions,
            rig.rngs.stream(f"rcast:{node_id}"),
            sender_policy=RcastPolicy(),
        )
        return PsmMac(
            rig.sim, node_id, rig.channel, rig.radios[node_id],
            rig.positions, rig.rngs.stream(f"mac:{node_id}"),
            rcast=rcast, power_manager=AlwaysPs(),
            beacon_interval=BEACON, atim_window=ATIM,
            clock_offset=offsets[node_id], epochs=epochs, trace=rig.trace,
        )

    return factory


def _run_psm_scenario(offsets, sends, crashes, shared: bool):
    """One full scenario; returns its observable signature."""
    rig = MacRig(LINE5, _psm_epoch_factory(offsets, shared))
    rig.start()
    for at, src, dst, label in sends:
        rig.sim.schedule(
            at, lambda s=src, d=dst, lb=label: rig.macs[s].send(
                DummyPacket(label=lb), d))
    for down_at, up_at, node in crashes:
        rig.sim.schedule(down_at, rig.macs[node].halt)
        rig.sim.schedule(up_at, rig.macs[node].resume)
    rig.sim.run(until=BEACON * 12)
    return {
        "received": [(n, p.label, s) for n, p, s in rig.received],
        "promiscuous": [(n, p.label, s) for n, p, s in rig.promiscuous],
        "sent": [(n, p.label, d) for n, p, d in rig.sent],
        "dropped": [(n, p.label) for n, p in rig.dropped],
        "intervals": {i: (len(rig.records("psm", "awake", i)),
                          len(rig.records("psm", "sleep", i)))
                      for i in rig.macs},
        "energy": {i: (radio.meter.awake_time, radio.meter.sleep_time)
                   for i, radio in rig.radios.items()},
        "rng": {name: rig.rngs.stream(name).getstate()
                for i in rig.macs
                for name in (f"mac:{i}", f"rcast:{i}")},
    }


@given(
    offset_picks=st.lists(st.integers(min_value=0, max_value=3),
                          min_size=5, max_size=5),
    sends=st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=0.9),
                  st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=6),
    crash=st.one_of(
        st.none(),
        st.tuples(st.floats(min_value=0.05, max_value=0.5),
                  st.floats(min_value=0.05, max_value=0.6),
                  st.integers(min_value=0, max_value=4))),
)
@settings(max_examples=12, deadline=None)
def test_shared_scheduler_matches_private_schedulers(offset_picks, sends,
                                                     crash):
    """Batched epoch groups ⟺ per-node event chains, observably identical.

    A private scheduler per MAC degenerates to singleton groups — the
    exact per-node 3-events-per-interval model the batching replaced —
    so running the same scenario both ways and demanding identical
    deliveries, sleep/awake accounting, radio energy and RNG stream
    states pins the whole equivalence argument (including mid-epoch
    crash/recovery, where a resumed node must rejoin at the same
    boundary either way).
    """
    offsets = [OFFSET_GRID[k] for k in offset_picks]
    send_plan = [(at, src, dst, f"p{i}")
                 for i, (at, src, dst) in enumerate(sends) if src != dst]
    crash_plan = []
    if crash is not None:
        down_at, gap, node = crash
        crash_plan = [(down_at, down_at + gap, node)]
    batched = _run_psm_scenario(offsets, send_plan, crash_plan, shared=True)
    reference = _run_psm_scenario(offsets, send_plan, crash_plan,
                                  shared=False)
    assert batched == reference


# ----------------------------------------------------------------------
# Counting channel wake under mobility
# ----------------------------------------------------------------------

class _ChannelRig:
    """Bare channel + radios on a mobile topology; no MAC in the way."""

    def __init__(self, num_nodes: int, seed: int, max_speed: float) -> None:
        self.sim = Simulator()
        arena = Arena(400.0, 400.0)
        model = RandomWaypoint(num_nodes, arena,
                               derived_stream(seed, "epoch-prop:wp"),
                               max_speed=max_speed, pause_time=0.0)
        self.positions = PositionService(self.sim, model, tx_range=150.0,
                                         cs_range=250.0)
        self.radios = {i: Radio(self.sim, i) for i in range(num_nodes)}
        for radio in self.radios.values():
            radio.wake()
        self.channel = Channel(self.sim, self.positions, self.radios,
                               bitrate=1e6)
        for i in range(num_nodes):
            self.channel.attach(i, lambda frame, sender: None)

    def brute_force_audible(self, node_id: int) -> Set[int]:
        cs = self.positions.cs_neighbors(node_id)
        return {tx.tx_id for tx in self.channel._active.values()
                if tx.sender == node_id or tx.sender in cs}


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=4, max_value=8),
    tx_gap_ms=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=15, deadline=None)
def test_waiter_busy_counts_survive_mobility(seed, num_nodes, tx_gap_ms):
    """Waiters wake exactly at quiet carrier sense, even while moving.

    Half the nodes transmit on a staggered schedule; the other half are
    pure observers re-registering ``wait_for_idle`` whenever they sense
    a busy medium.  Fast waypoint mobility churns cs membership under
    the incremental busy sets, so the refresh listener's re-snapshot
    path is exercised for real.  Invariants: every wake happens at a
    genuinely idle instant, the incremental sets always equal a
    from-scratch recomputation, and teardown leaves no waiter stranded.
    """
    from repro.mac.frames import BROADCAST, Frame

    rig = _ChannelRig(num_nodes, seed, max_speed=40.0)
    senders = list(range(0, num_nodes, 2))
    observers = [n for n in range(num_nodes) if n not in senders]
    wakes: List[Tuple[float, int]] = []

    def observe(node: int) -> None:
        # Wake contract: the medium this node senses is quiet right now.
        assert not rig.channel.is_busy(node), (
            f"observer {node} woken at t={rig.sim.now} while busy")
        wakes.append((rig.sim.now, node))
        rig.sim.schedule(0.0, lambda: watch(node))

    def watch(node: int) -> None:
        if rig.channel.is_busy(node):
            rig.channel.wait_for_idle(node, lambda n=node: observe(n))

    def check_invariant() -> None:
        for node in list(rig.channel._idle_waiters):
            expected = rig.brute_force_audible(node)
            actual = rig.channel._waiter_txs[node]
            assert actual == expected, (
                f"waiter {node}: incremental {actual} != "
                f"recomputed {expected} at t={rig.sim.now}")
            assert (node in rig.channel._ready_waiters) == (not actual)

    def send(i: int) -> None:
        sender = senders[i % len(senders)]
        if sender not in rig.channel._active:
            rig.channel.transmit(
                sender, Frame(src=sender, dst=BROADCAST,
                              packet=DummyPacket(size_bytes=1200)))

    gap = tx_gap_ms / 1000.0
    for i in range(40):
        rig.sim.schedule(0.001 + i * gap, send, i)
    for k in range(1, 30):
        rig.sim.schedule(k * 0.01, check_invariant)
        for node in observers:
            rig.sim.schedule(k * 0.01, watch, node)
    rig.sim.run()

    check_invariant()
    # Nothing is in flight at drain, so no waiter may still be pending:
    # every busy registration must have been woken by some teardown.
    assert not rig.channel._active
    for node in rig.channel._idle_waiters:
        assert not rig.channel._waiter_txs[node]
        assert node in rig.channel._ready_waiters
    # Topologies where no observer ever senses a sender are vacuous for
    # the wake contract — discard the draw rather than fail on it.
    assume(wakes)
