"""State-timed energy accounting.

The paper measures energy exactly as ``power(state) x time-in-state`` with
two effective states: awake (1.15 W, covering idle listening, receive and
transmit alike) and sleep (0.045 W).  :class:`EnergyMeter` implements that
accounting over the three radio states the radio enters (sleep, idle
listening, transmit); on :data:`PAPER_POWER_TABLE`, IDLE and TX both cost
1.15 W, reproducing the paper's model.  Reception is not a state of its
own: a receiving radio is idle listening.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.constants import POWER_AWAKE_W, POWER_SLEEP_W
from repro.errors import SimulationError
from repro.sim.trace import NULL_TRACE, TraceSink


class RadioState(enum.Enum):
    """Radio operating states."""

    SLEEP = "sleep"
    IDLE = "idle"
    TX = "tx"

    # Members are singletons compared by identity, so the C-level identity
    # hash is exact; ``Enum.__hash__`` is a Python call on every lookup of
    # the meter's per-state tables, i.e. on every radio transition.
    __hash__ = object.__hash__

    @property
    def awake(self) -> bool:
        """True for every state except SLEEP."""
        return self is not RadioState.SLEEP


#: The paper's two-level power table, expressed over three states.
PAPER_POWER_TABLE: Dict[RadioState, float] = {
    RadioState.SLEEP: POWER_SLEEP_W,
    RadioState.IDLE: POWER_AWAKE_W,
    RadioState.TX: POWER_AWAKE_W,
}


class EnergyMeter:
    """Accumulates per-state residence time and energy for one radio.

    The meter starts IDLE at t = 0 on :data:`PAPER_POWER_TABLE` and is
    driven by :meth:`transition` calls with the current virtual time; time
    never flows backwards.  ``finalize`` closes the books at the end of a
    run so the last state's residency is counted.
    """

    def __init__(
        self,
        battery_joules: Optional[float] = None,
        node_id: int = -1,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        #: per-instance copy: ``perfbench/selftest.py`` re-prices a meter's
        #: sleep state to check that the energy identity catches it
        self._power = dict(PAPER_POWER_TABLE)
        self._state = RadioState.IDLE
        self._last_time = 0.0
        self._state_time: Dict[RadioState, float] = {s: 0.0 for s in RadioState}
        self._energy = 0.0
        self.battery_joules = battery_joules
        self.node_id = node_id
        self.trace = trace
        self._finalized = False

    # ------------------------------------------------------------------

    @property
    def state(self) -> RadioState:
        """Current radio state."""
        return self._state

    @property
    def awake(self) -> bool:
        """True in any state except SLEEP (hot-path single-hop check)."""
        return self._state is not RadioState.SLEEP

    def transition(self, new_state: RadioState, time: float) -> None:
        """Move to ``new_state`` at virtual time ``time``."""
        if self._finalized:
            raise SimulationError("EnergyMeter already finalized")
        prev = self._state
        self._accumulate(time)
        self._state = new_state
        if new_state is not prev and self.trace.enabled:
            self.trace.emit(time, "energy", self.node_id, "state",
                            prev=prev.value, state=new_state.value,
                            energy=self._energy)

    def _accumulate(self, time: float) -> None:
        if time < self._last_time - 1e-12:
            raise SimulationError(
                f"energy meter driven backwards: {time} < {self._last_time}"
            )
        dt = max(time - self._last_time, 0.0)
        self._state_time[self._state] += dt
        self._energy += dt * self._power[self._state]
        self._last_time = time

    def finalize(self, time: float) -> None:
        """Account residency up to ``time`` and freeze the meter."""
        self._accumulate(time)
        self._finalized = True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def energy_joules(self, time: Optional[float] = None) -> float:
        """Energy consumed so far (optionally projected to ``time``)."""
        extra = 0.0
        if time is not None and not self._finalized:
            dt = max(time - self._last_time, 0.0)
            extra = dt * self._power[self._state]
        return self._energy + extra

    def time_in(self, state: RadioState) -> float:
        """Seconds spent in ``state`` so far."""
        return self._state_time[state]

    @property
    def awake_time(self) -> float:
        """Total seconds spent in any awake state."""
        return sum(self._state_time[s] for s in RadioState if s.awake)

    def awake_seconds(self, time: Optional[float] = None) -> float:
        """Awake seconds, projected to ``time`` like :meth:`energy_joules`.

        ``awake_time`` only reflects completed state residencies; this
        variant also counts the in-progress stretch up to ``time``, which
        is what a mid-run controller sampling at a beacon boundary needs.
        """
        extra = 0.0
        if time is not None and not self._finalized and self._state.awake:
            extra = max(time - self._last_time, 0.0)
        return self.awake_time + extra

    @property
    def sleep_time(self) -> float:
        """Total seconds spent asleep."""
        return self._state_time[RadioState.SLEEP]

    def remaining_fraction(self, time: Optional[float] = None) -> float:
        """Remaining battery fraction in [0, 1]; 1.0 when no battery is set."""
        if self.battery_joules is None:
            return 1.0
        used = self.energy_joules(time)
        return max(0.0, 1.0 - used / self.battery_joules)


__all__ = ["EnergyMeter", "RadioState", "PAPER_POWER_TABLE"]
