"""Tests for the Rcast decision factors."""

import math

import pytest

from repro.core.factors import (
    BatteryFactor,
    CompositeProbability,
    MobilityFactor,
    NeighborCountProbability,
    SenderRecencyFactor,
)
from repro.errors import ConfigurationError


class Ann:
    def __init__(self, sender=7):
        self.sender = sender


def test_neighbor_count_probability_paper_example():
    """Paper: five neighbors -> P_R = 0.2."""
    base = NeighborCountProbability(lambda: 5)
    assert base(Ann()) == pytest.approx(0.2)


def test_neighbor_count_zero_neighbors_clamps_to_one():
    base = NeighborCountProbability(lambda: 0)
    assert base(Ann()) == 1.0


def test_sender_recency_never_heard_gets_max_gain():
    factor = SenderRecencyFactor(lambda: 100.0, lambda s: None,
                                 horizon=10.0, min_gain=0.25, max_gain=4.0)
    assert factor(Ann()) == 4.0


def test_sender_recency_just_heard_gets_min_gain():
    factor = SenderRecencyFactor(lambda: 100.0, lambda s: 100.0,
                                 horizon=10.0, min_gain=0.25, max_gain=4.0)
    assert factor(Ann()) == pytest.approx(0.25)


def test_sender_recency_ramps_linearly():
    factor = SenderRecencyFactor(lambda: 100.0, lambda s: 95.0,
                                 horizon=10.0, min_gain=0.5, max_gain=2.5)
    assert factor(Ann()) == pytest.approx(1.5)  # half the horizon


def test_sender_recency_saturates_at_horizon():
    factor = SenderRecencyFactor(lambda: 100.0, lambda s: 0.0,
                                 horizon=10.0, min_gain=0.25, max_gain=4.0)
    assert factor(Ann()) == 4.0


def test_sender_recency_validation():
    with pytest.raises(ConfigurationError):
        SenderRecencyFactor(lambda: 0.0, lambda s: None, horizon=0.0)
    with pytest.raises(ConfigurationError):
        SenderRecencyFactor(lambda: 0.0, lambda s: None, min_gain=2.0,
                            max_gain=1.0)


def test_mobility_factor_static_node_full_probability():
    factor = MobilityFactor(lambda: 0.0, scale=1.0)
    assert factor(Ann()) == pytest.approx(1.0)


def test_mobility_factor_decays_exponentially():
    factor = MobilityFactor(lambda: 1.0, scale=1.0)
    assert factor(Ann()) == pytest.approx(math.exp(-1.0))


def test_mobility_factor_validation():
    with pytest.raises(ConfigurationError):
        MobilityFactor(lambda: 0.0, scale=0.0)


def test_battery_factor_tracks_remaining_fraction():
    factor = BatteryFactor(lambda: 0.7)
    assert factor(Ann()) == pytest.approx(0.7)


def test_battery_factor_floor():
    factor = BatteryFactor(lambda: 0.0, floor=0.05)
    assert factor(Ann()) == 0.05


def test_battery_factor_validation():
    with pytest.raises(ConfigurationError):
        BatteryFactor(lambda: 1.0, floor=1.5)


def test_composite_multiplies_and_clamps():
    comp = CompositeProbability(lambda a: 0.5, [lambda a: 0.5, lambda a: 10.0])
    assert comp(Ann()) == 1.0  # 0.5*0.5*10 = 2.5 -> clamped
    comp = CompositeProbability(lambda a: 0.5, [lambda a: 0.5])
    assert comp(Ann()) == pytest.approx(0.25)


def test_composite_without_factors_is_base():
    comp = CompositeProbability(lambda a: 0.3)
    assert comp(Ann()) == pytest.approx(0.3)


def test_composite_factor_names():
    comp = CompositeProbability(
        lambda a: 1.0,
        [MobilityFactor(lambda: 0.0), BatteryFactor(lambda: 1.0)],
    )
    assert [f.name for f in comp._factors] == ["mobility", "battery"]
