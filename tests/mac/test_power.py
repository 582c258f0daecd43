"""Tests for power-mode managers (AlwaysPs and ODPM)."""

import pytest

from repro.errors import ConfigurationError
from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import AlwaysPs, PowerMode
from repro.sim.trace import TraceLog


def test_always_ps():
    manager = AlwaysPs()
    assert manager.mode(0.0) is PowerMode.PS
    manager.note_event("data", 0.0)  # ignored
    assert manager.mode(1e6) is PowerMode.PS


def test_odpm_starts_in_ps():
    assert OdpmPowerManager().mode(0.0) is PowerMode.PS


def test_odpm_data_event_arms_two_seconds():
    manager = OdpmPowerManager()
    manager.note_event("data", 10.0)
    assert manager.mode(10.0) is PowerMode.AM
    assert manager.mode(11.99) is PowerMode.AM
    assert manager.mode(12.0) is PowerMode.PS


def test_odpm_rrep_event_arms_five_seconds():
    manager = OdpmPowerManager()
    manager.note_event("rrep", 0.0)
    assert manager.mode(4.99) is PowerMode.AM
    assert manager.mode(5.0) is PowerMode.PS


def test_odpm_keepalive_is_high_water_mark():
    manager = OdpmPowerManager()
    manager.note_event("rrep", 0.0)     # AM until 5.0
    manager.note_event("data", 1.0)     # 1+2=3 < 5: no shrink
    assert manager.mode(4.9) is PowerMode.AM
    assert manager.mode(5.0) is PowerMode.PS
    manager.note_event("data", 4.5)     # 6.5 > 5: extend
    assert manager.mode(6.4) is PowerMode.AM
    assert manager.mode(6.5) is PowerMode.PS


def test_odpm_paper_interpacket_behaviour():
    """At 2 pkt/s (0.5 s gaps) the 2 s timer never expires (paper Fig. 5d)."""
    manager = OdpmPowerManager()
    t = 0.0
    while t < 30.0:
        manager.note_event("data", t)
        assert manager.mode(t + 0.49) is PowerMode.AM
        t += 0.5
    # At 0.4 pkt/s (2.5 s gaps) the node toggles (paper Fig. 5c).
    manager2 = OdpmPowerManager()
    manager2.note_event("data", 0.0)
    assert manager2.mode(2.4) is PowerMode.PS


def test_odpm_counts_ps_to_am_switches():
    trace = TraceLog()
    manager = OdpmPowerManager(trace=trace)
    manager.note_event("data", 0.0)    # PS -> AM
    manager.note_event("data", 1.0)    # still AM, no switch
    manager.note_event("data", 10.0)   # expired, PS -> AM again
    assert [(r.time, r.event) for r in trace] == [(0.0, "am_enter"),
                                                  (10.0, "am_enter")]


def test_odpm_rejects_unknown_event():
    with pytest.raises(ConfigurationError):
        OdpmPowerManager().note_event("bogus", 0.0)


def test_describe_strings():
    assert OdpmPowerManager().describe() == "ODPM(rrep=5s, data=2s)"
    assert AlwaysPs().describe() == "AlwaysPs"
