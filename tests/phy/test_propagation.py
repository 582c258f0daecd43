"""Tests for propagation models and the derived disk reception rule."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.phy.propagation import (
    DEFAULT_CS_THRESHOLD_W,
    DEFAULT_RX_THRESHOLD_W,
    DEFAULT_TX_POWER_W,
    DiskReception,
    FreeSpaceModel,
    TwoRayGroundModel,
)


def test_free_space_inverse_square_law():
    model = FreeSpaceModel()
    p100 = model.received_power(1.0, 100.0)
    p200 = model.received_power(1.0, 200.0)
    assert p100 / p200 == pytest.approx(4.0)


def test_free_space_power_scales_linearly_with_tx():
    model = FreeSpaceModel()
    assert model.received_power(2.0, 100.0) == pytest.approx(
        2.0 * model.received_power(1.0, 100.0)
    )


def test_free_space_zero_distance_returns_tx_power():
    assert FreeSpaceModel().received_power(0.5, 0.0) == 0.5


def test_two_ray_inverse_fourth_power_beyond_crossover():
    model = TwoRayGroundModel()
    d = model.crossover * 2
    p1 = model.received_power(1.0, d)
    p2 = model.received_power(1.0, 2 * d)
    assert p1 / p2 == pytest.approx(16.0)


def test_two_ray_matches_free_space_below_crossover():
    model = TwoRayGroundModel()
    fs = FreeSpaceModel()
    d = model.crossover / 2
    assert model.received_power(1.0, d) == pytest.approx(
        fs.received_power(1.0, d)
    )


def test_two_ray_continuous_at_crossover():
    """ns-2's parameterization makes the two branches agree at crossover."""
    model = TwoRayGroundModel()
    below = model.received_power(1.0, model.crossover * 0.999999)
    above = model.received_power(1.0, model.crossover * 1.000001)
    assert below == pytest.approx(above, rel=1e-3)


def test_ns2_defaults_give_250m_rx_range():
    """The headline check: ns-2's default thresholds ARE a 250 m disk."""
    model = TwoRayGroundModel()
    rx_range = model.range_for_threshold(DEFAULT_TX_POWER_W,
                                         DEFAULT_RX_THRESHOLD_W)
    assert rx_range == pytest.approx(250.0, rel=0.01)


def test_ns2_defaults_give_550m_cs_range():
    model = TwoRayGroundModel()
    cs_range = model.range_for_threshold(DEFAULT_TX_POWER_W,
                                         DEFAULT_CS_THRESHOLD_W)
    assert cs_range == pytest.approx(550.0, rel=0.02)


def test_range_for_threshold_round_trips():
    model = TwoRayGroundModel()
    for d in (200.0, 250.0, 400.0, 550.0):
        threshold = model.received_power(DEFAULT_TX_POWER_W, d)
        assert model.range_for_threshold(
            DEFAULT_TX_POWER_W, threshold
        ) == pytest.approx(d, rel=1e-6)


def test_disk_predicates():
    disk = DiskReception(rx_range=250.0, cs_range=550.0)
    assert disk.receivable(249.9)
    assert disk.receivable(250.0)
    assert not disk.receivable(250.1)
    assert disk.sensible(549.0)
    assert not disk.sensible(551.0)


def test_disk_validation():
    with pytest.raises(ConfigurationError):
        DiskReception(rx_range=0.0, cs_range=100.0)
    with pytest.raises(ConfigurationError):
        DiskReception(rx_range=250.0, cs_range=100.0)


def test_two_ray_rejects_bad_heights():
    with pytest.raises(ConfigurationError):
        TwoRayGroundModel(tx_height=0.0)


def test_free_space_rejects_bad_frequency():
    with pytest.raises(ConfigurationError):
        FreeSpaceModel(freq_hz=0.0)


def test_range_for_threshold_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        TwoRayGroundModel().range_for_threshold(1.0, 0.0)
