"""Tests for the energy meter."""

import pytest

from repro.constants import POWER_AWAKE_W, POWER_SLEEP_W
from repro.errors import SimulationError
from repro.phy.energy import EnergyMeter, PAPER_POWER_TABLE, RadioState


def test_idle_energy_is_awake_power_times_time():
    meter = EnergyMeter()
    meter.finalize(10.0)
    assert meter.energy_joules() == pytest.approx(10.0 * POWER_AWAKE_W)


def test_sleep_energy():
    meter = EnergyMeter()
    meter.transition(RadioState.SLEEP, 0.0)
    meter.finalize(100.0)
    assert meter.energy_joules() == pytest.approx(100.0 * POWER_SLEEP_W)


def test_paper_always_on_number():
    """The paper's 802.11 figure: 1.15 W x 1125 s = 1293.75 J."""
    meter = EnergyMeter()
    meter.finalize(1125.0)
    assert meter.energy_joules() == pytest.approx(1293.75)


def test_paper_odpm_uninvolved_number():
    """The paper's untouched-ODPM-node arithmetic:
    1.15 W x 225 s (ATIM windows) + 0.045 W x 900 s (sleep) = 299.25 J."""
    meter = EnergyMeter()
    time = 0.0
    for _ in range(4500):  # 4500 beacon intervals of 250 ms over 1125 s
        meter.transition(RadioState.IDLE, time)
        time += 0.050
        meter.transition(RadioState.SLEEP, time)
        time += 0.200
    meter.finalize(time)
    assert time == pytest.approx(1125.0)
    assert meter.energy_joules() == pytest.approx(299.25, rel=1e-9)


def test_mixed_states_accumulate():
    meter = EnergyMeter()
    meter.transition(RadioState.SLEEP, 4.0)   # 4 s idle
    meter.transition(RadioState.IDLE, 10.0)   # 6 s sleep
    meter.finalize(12.0)                      # 2 s idle
    expected = 6.0 * POWER_AWAKE_W + 6.0 * POWER_SLEEP_W
    assert meter.energy_joules() == pytest.approx(expected)


def test_time_accounting_sums_to_elapsed():
    meter = EnergyMeter()
    meter.transition(RadioState.TX, 1.0)
    meter.transition(RadioState.IDLE, 2.5)
    meter.transition(RadioState.SLEEP, 3.0)
    meter.finalize(10.0)
    total = sum(meter.time_in(s) for s in RadioState)
    assert total == pytest.approx(10.0)
    assert meter.awake_time == pytest.approx(3.0)
    assert meter.sleep_time == pytest.approx(7.0)


def test_projection_without_finalize():
    meter = EnergyMeter()
    assert meter.energy_joules(5.0) == pytest.approx(5.0 * POWER_AWAKE_W)
    # Projection does not mutate state.
    assert meter.energy_joules(5.0) == pytest.approx(5.0 * POWER_AWAKE_W)


def test_paper_power_table_has_two_levels():
    assert PAPER_POWER_TABLE[RadioState.IDLE] == PAPER_POWER_TABLE[RadioState.TX]
    assert PAPER_POWER_TABLE[RadioState.SLEEP] < PAPER_POWER_TABLE[RadioState.IDLE]


def test_backwards_time_rejected():
    meter = EnergyMeter()
    meter.transition(RadioState.SLEEP, 5.0)
    with pytest.raises(SimulationError):
        meter.transition(RadioState.IDLE, 4.0)


def test_transition_after_finalize_rejected():
    meter = EnergyMeter()
    meter.finalize(1.0)
    with pytest.raises(SimulationError):
        meter.transition(RadioState.SLEEP, 2.0)


def test_battery_fraction_and_depletion():
    meter = EnergyMeter(battery_joules=POWER_AWAKE_W * 10.0)
    assert meter.remaining_fraction(0.0) == pytest.approx(1.0)
    assert meter.remaining_fraction(5.0) == pytest.approx(0.5)
    assert meter.remaining_fraction(9.0) > 0.0
    assert meter.remaining_fraction(10.0) == 0.0
    assert meter.remaining_fraction(20.0) == 0.0  # clamped


def test_no_battery_means_full_fraction():
    meter = EnergyMeter()
    assert meter.remaining_fraction(1e6) == 1.0

