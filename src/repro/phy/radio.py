"""Per-node radio: wake/sleep state plus energy accounting.

The radio is the single authority on whether a node can hear the channel.
MAC layers call :meth:`sleep` / :meth:`wake`; the channel calls
:meth:`can_receive` when deciding frame delivery and marks the TX state for
the length of each transmission (with the paper's power table it costs the
same as idle listening, so the headline numbers are unaffected).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from repro.phy.energy import EnergyMeter, RadioState
from repro.sim.engine import Simulator


class Radio:
    """Radio state machine for one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        meter: Optional[EnergyMeter] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.meter = meter if meter is not None else EnergyMeter()
        self._tx_until = 0.0
        #: write-through mirror of "cannot decode until": ``tx_until`` while
        #: awake, +inf while dozing.  Bound by the channel so delivery
        #: classification can gather radio state for all receivers with one
        #: numpy fancy-index instead of a per-receiver attribute walk.
        self._m_blocked: Optional[NDArray[np.float64]] = None
        #: fired after each awake->doze transition; the DCF uses it to
        #: convert a pending wait-for-idle into a real (deferrable) attempt
        self.on_sleep: Optional[Callable[[], None]] = None

    def bind_state_mirror(self, blocked_until: NDArray[np.float64]) -> None:
        """Adopt the shared state-mirror array (channel wiring).

        ``blocked_until[node_id] <= t`` must equal :meth:`can_receive` at
        time ``t``; every wake/sleep/tx transition writes its scalar
        through.
        """
        self._m_blocked = blocked_until
        blocked_until[self.node_id] = (
            float("inf") if self.meter._state is RadioState.SLEEP
            else self._tx_until)

    # ------------------------------------------------------------------

    @property
    def is_awake(self) -> bool:
        """True unless the radio is in the doze state.

        Reads the meter's state attribute directly (rather than the
        ``EnergyMeter.awake`` property) — this check runs millions of times
        per run from the channel delivery and DCF attempt paths.
        """
        return self.meter._state is not RadioState.SLEEP

    @property
    def is_transmitting(self) -> bool:
        """True while a transmission of ours is on the air."""
        return self.sim.now < self._tx_until

    def can_receive(self) -> bool:
        """True when the radio could decode an incoming frame right now.

        A half-duplex radio cannot receive while transmitting.  The channel
        calls this once per audible node per transmission, so the awake and
        transmitting checks are inlined rather than routed through the
        ``is_awake`` / ``is_transmitting`` properties.
        """
        return (self.meter._state is not RadioState.SLEEP
                and self.sim.now >= self._tx_until)

    # ------------------------------------------------------------------
    # State transitions (driven by MAC)
    # ------------------------------------------------------------------

    def wake(self) -> None:
        """Wake the radio into idle listening (no-op when awake)."""
        if not self.is_awake:
            self.meter.transition(RadioState.IDLE, self.sim.now)
            if self._m_blocked is not None:
                self._m_blocked[self.node_id] = self._tx_until

    def sleep(self) -> None:
        """Put the radio into the low-power doze state (no-op when asleep)."""
        if self.is_awake:
            self.meter.transition(RadioState.SLEEP, self.sim.now)
            if self._m_blocked is not None:
                self._m_blocked[self.node_id] = float("inf")
            if self.on_sleep is not None:
                self.on_sleep()

    def note_tx(self, duration: float) -> None:
        """Mark the radio as transmitting for ``duration`` seconds.

        The radio must already be awake.  The IDLE transition back is
        recorded by the matching :meth:`end_tx` the channel schedules.
        """
        self.meter.transition(RadioState.TX, self.sim.now)
        self._tx_until = self.sim.now + duration
        if self._m_blocked is not None:
            self._m_blocked[self.node_id] = self._tx_until

    def end_tx(self) -> None:
        """Return from TX to idle listening (channel callback)."""
        if self.meter.state is RadioState.TX:
            self.meter.transition(RadioState.IDLE, self.sim.now)

    # ------------------------------------------------------------------

    def energy_joules(self) -> float:
        """Energy consumed so far at the current virtual time."""
        return self.meter.energy_joules(self.sim.now)

    def finalize(self) -> None:
        """Close the energy books at the current virtual time."""
        self.meter.finalize(self.sim.now)


__all__ = ["Radio"]
