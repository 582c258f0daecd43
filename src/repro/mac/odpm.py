"""On-Demand Power Management (Zheng & Kravets, INFOCOM 2003).

ODPM keeps a node in active mode (AM) for a while after communication events
that predict more traffic, and lets it fall back to PS mode otherwise:

* receiving or forwarding a **RREP** arms a 5 s keep-alive (a route through
  this node was just set up, data is likely to follow);
* sending, receiving or forwarding a **data packet** — or being the source or
  destination of an active flow — arms a 2 s keep-alive.

The keep-alive is a high-water mark: each event extends the AM deadline to
``now + timeout`` if that is later than the current deadline.  The paper uses
exactly these two timeout values and observes the resulting behaviour: with
0.5 s inter-packet gaps (2 pkt/s) the 2 s timer never expires, so every node
on an active path stays awake for the entire run.
"""

from __future__ import annotations

from repro.constants import ODPM_DATA_TIMEOUT_S, ODPM_RREP_TIMEOUT_S
from repro.errors import ConfigurationError
from repro.mac.power import PowerManager, PowerMode
from repro.sim.trace import NULL_TRACE, TraceSink


class OdpmPowerManager(PowerManager):
    """Event-driven AM/PS switching with per-event keep-alive timeouts."""

    def __init__(
        self,
        node_id: int = -1,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.node_id = node_id
        self.trace = trace
        self._am_until = 0.0

    def mode(self, now: float) -> PowerMode:
        """AM while a keep-alive is armed, PS otherwise."""
        return PowerMode.AM if now < self._am_until else PowerMode.PS

    def note_event(self, kind: str, now: float) -> None:
        """Arm/extend the AM keep-alive for a communication event."""
        if kind == "rrep":
            timeout = ODPM_RREP_TIMEOUT_S
        elif kind == "data":
            timeout = ODPM_DATA_TIMEOUT_S
        else:
            raise ConfigurationError(f"unknown ODPM event kind {kind!r}")
        was_ps = now >= self._am_until
        deadline = now + timeout
        if deadline > self._am_until:
            self._am_until = deadline
        if was_ps and self.trace.enabled:
            self.trace.emit(now, "odpm", self.node_id, "am_enter",
                            cause=kind, until=self._am_until)

    def describe(self) -> str:
        """Label with the keep-alive timeouts."""
        return (
            f"ODPM(rrep={ODPM_RREP_TIMEOUT_S:g}s, "
            f"data={ODPM_DATA_TIMEOUT_S:g}s)"
        )


__all__ = ["OdpmPowerManager"]
