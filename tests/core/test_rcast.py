"""Tests for the per-node Rcast manager."""

import pytest

from repro.core.atim import (
    SUBTYPE_ATIM_RANDOMIZED,
    SUBTYPE_ATIM_STANDARD,
    SUBTYPE_ATIM_UNCONDITIONAL,
)
from repro.core.policy import NoOverhearing, OverhearingLevel
from repro.core.rcast import RcastManager
from repro.mac.frames import Announcement
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.phy.energy import EnergyMeter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class Pkt:
    def __init__(self, kind):
        self.kind = kind
        self.size_bytes = 100


def make_manager(num_neighbors=4, **kwargs):
    """An RcastManager whose node 0 has ``num_neighbors`` neighbors."""
    sim = Simulator()
    # Node 0 at origin; neighbors 30 m apart within 150 m range.
    positions = [(0.0, 50.0)] + [(30.0 * (i + 1), 50.0)
                                 for i in range(num_neighbors)]
    arena = Arena(1000.0, 100.0)
    service = PositionService(sim, StaticPlacement(positions, arena),
                              tx_range=150.0, cs_range=300.0)
    rngs = RngRegistry(5)
    manager = RcastManager(0, sim, service, rngs.stream("rcast"), **kwargs)
    return sim, manager


def factor_names(manager):
    """Names of the factor multipliers in the manager's P_R product."""
    return [f.name for f in manager.decider._probability_fn._factors]


def ann(sender=1, dst=2, level=OverhearingLevel.RANDOMIZED):
    return Announcement(sender=sender, dst=dst, frame_id=1, level=level,
                        subtype=SUBTYPE_ATIM_RANDOMIZED, packet_kind="data")


def test_advertise_maps_rcast_policy():
    _, manager = make_manager()
    level, subtype = manager.advertise(Pkt("data"))
    assert level is OverhearingLevel.RANDOMIZED
    assert subtype == SUBTYPE_ATIM_RANDOMIZED
    level, subtype = manager.advertise(Pkt("rerr"))
    assert level is OverhearingLevel.UNCONDITIONAL
    assert subtype == SUBTYPE_ATIM_UNCONDITIONAL


def test_advertise_custom_policy():
    _, manager = make_manager(sender_policy=NoOverhearing())
    level, subtype = manager.advertise(Pkt("data"))
    assert level is OverhearingLevel.NONE
    assert subtype == SUBTYPE_ATIM_STANDARD


def test_none_level_never_overhears():
    _, manager = make_manager()
    assert not manager.should_overhear(ann(level=OverhearingLevel.NONE))


def test_unconditional_level_always_overhears():
    _, manager = make_manager()
    assert manager.should_overhear(ann(level=OverhearingLevel.UNCONDITIONAL))


def test_randomized_probability_is_one_over_neighbors():
    _, manager = make_manager(num_neighbors=4)
    assert manager.decider.probability(ann()) == pytest.approx(0.25)


def test_randomized_rate_converges():
    _, manager = make_manager(num_neighbors=4)
    n = 20000
    hits = sum(manager.should_overhear(ann()) for _ in range(n))
    assert hits / n == pytest.approx(0.25, abs=0.02)


def test_note_heard_and_last_heard():
    sim, manager = make_manager()
    assert manager.last_heard(3) is None
    # The PSM fan-outs note a heard node by writing the store directly.
    sim.schedule(2.0, lambda: manager.heard_at.update({3: sim.now}))
    sim.run()
    assert manager.last_heard(3) == 2.0


def test_sender_recency_factor_boosts_unheard_sender():
    _, plain = make_manager(num_neighbors=4)
    _, with_recency = make_manager(num_neighbors=4, use_sender_recency=True)
    # Never-heard sender gets the max gain (4x base).
    assert (with_recency.decider.probability(ann())
            > plain.decider.probability(ann()))
    assert factor_names(with_recency) == ["sender-recency"]


def test_recency_damps_recently_heard_sender():
    _, manager = make_manager(num_neighbors=4, use_sender_recency=True)
    boosted = manager.decider.probability(ann(sender=1))
    manager.heard_at[1] = manager.sim.now
    damped = manager.decider.probability(ann(sender=1))
    assert damped < boosted


def test_battery_factor_requires_meter():
    with pytest.raises(ValueError):
        make_manager(use_battery=True)


def test_battery_factor_scales_probability():
    meter = EnergyMeter(battery_joules=1.15 * 10.0)
    _, manager = make_manager(num_neighbors=1, use_battery=True,
                              energy_meter=meter)
    # Fresh battery: P = 1.0 (one neighbor) * 1.0.
    assert manager.decider.probability(ann()) == pytest.approx(1.0)


def test_mobility_factor_active():
    _, manager = make_manager(use_mobility=True)
    assert factor_names(manager) == ["mobility"]
    # Static network: link-change rate 0 -> full probability retained.
    assert manager.decider.probability(ann()) == pytest.approx(0.25)


def test_broadcast_default_always_received():
    _, manager = make_manager()
    assert manager.should_receive_broadcast(ann(dst=-1))


def test_randomized_broadcast_respects_floor():
    _, manager = make_manager(num_neighbors=9, randomized_broadcast=True)
    n = 20000
    hits = sum(manager.should_receive_broadcast(ann(dst=-1)) for _ in range(n))
    # P = max(1/9, 0.5) = 0.5
    assert hits / n == pytest.approx(0.5, abs=0.02)
