"""Tests for the radio state machine."""

import pytest

from repro.constants import POWER_AWAKE_W, POWER_SLEEP_W
from repro.phy.energy import RadioState
from repro.phy.radio import Radio


def test_radio_starts_awake(sim):
    radio = Radio(sim, 0)
    assert radio.is_awake
    assert radio.can_receive()


def test_sleep_and_wake(sim):
    radio = Radio(sim, 0)
    radio.sleep()
    assert not radio.is_awake
    assert not radio.can_receive()
    radio.wake()
    assert radio.is_awake


def test_sleep_is_idempotent(sim):
    radio = Radio(sim, 0)
    radio.sleep()
    radio.sleep()
    assert not radio.is_awake
    radio.wake()
    radio.wake()
    assert radio.is_awake


def test_energy_tracks_sleep_schedule(sim):
    radio = Radio(sim, 0)
    sim.schedule(2.0, radio.sleep)
    sim.schedule(8.0, radio.wake)
    sim.schedule(10.0, lambda: None)
    sim.run()
    radio.finalize()
    expected = 4.0 * POWER_AWAKE_W + 6.0 * POWER_SLEEP_W
    assert radio.meter.energy_joules() == pytest.approx(expected)


def test_cannot_receive_while_transmitting(sim):
    radio = Radio(sim, 0)
    radio.note_tx(0.01)
    assert radio.is_awake
    assert radio.is_transmitting
    assert not radio.can_receive()
    sim.schedule(0.01, radio.end_tx)
    sim.schedule(0.02, lambda: None)
    sim.run()
    assert not radio.is_transmitting
    assert radio.can_receive()


def test_tx_state_recorded_in_meter(sim):
    radio = Radio(sim, 0)
    radio.note_tx(0.5)
    sim.schedule(0.5, radio.end_tx)
    sim.run()
    radio.finalize()
    assert radio.meter.time_in(RadioState.TX) == pytest.approx(0.5)


def test_end_tx_only_from_tx_state(sim):
    radio = Radio(sim, 0)
    radio.sleep()
    radio.end_tx()  # no-op, must not raise or wake
    assert not radio.is_awake


def test_energy_joules_at_current_time(sim):
    radio = Radio(sim, 0)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert radio.energy_joules() == pytest.approx(3.0 * POWER_AWAKE_W)
