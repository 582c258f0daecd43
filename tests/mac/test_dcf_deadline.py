"""Focused DCF tests: deadlines, retries and their interaction."""

from repro.constants import DIFS_S, MAC_RETRY_LIMIT
from repro.mac.dcf import TxOutcome
from repro.mac.frames import Frame

from tests.mac.conftest import DummyPacket, MacRig, always_on_factory


def make_rig():
    rig = MacRig([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)],
                 always_on_factory)
    rig.start()
    return rig


def test_retries_stop_at_deadline():
    """A dead receiver with a tight deadline defers instead of burning all
    retries (the PSM re-announcement path)."""
    rig = make_rig()
    rig.radios[1].sleep()
    exponents = _record_backoff_exponents(rig.macs[0].dcf)
    outcomes = []
    frame = Frame(0, 1, DummyPacket())
    rig.macs[0].dcf.submit(frame, lambda f, o, d: outcomes.append(o),
                           deadline=0.004)
    rig.sim.run(until=1.0)
    assert outcomes == [TxOutcome.DEFERRED]
    # Fewer than the full retry budget was spent: the k-th retry draws at
    # exponent k.
    assert max(exponents) < MAC_RETRY_LIMIT


def test_stale_deadline_defers_immediately():
    rig = make_rig()
    outcomes = []
    # Deadline already in the past relative to first attempt.
    rig.macs[0].dcf.submit(Frame(0, 1, DummyPacket()),
                           lambda f, o, d: outcomes.append(o),
                           deadline=0.0)
    rig.sim.run(until=0.5)
    assert outcomes == [TxOutcome.DEFERRED]
    assert rig.channel.frames_sent == 0


def test_queue_continues_after_deferred():
    """A deferred head submission must not wedge the pipeline."""
    rig = make_rig()
    outcomes = []
    rig.macs[0].dcf.submit(Frame(0, 1, DummyPacket()),
                           lambda f, o, d: outcomes.append(("a", o)),
                           deadline=0.0)
    rig.macs[0].dcf.submit(Frame(0, 1, DummyPacket()),
                           lambda f, o, d: outcomes.append(("b", o)))
    rig.sim.run(until=1.0)
    assert outcomes[0] == ("a", TxOutcome.DEFERRED)
    assert outcomes[1] == ("b", TxOutcome.DELIVERED)


def test_attempt_landing_exactly_on_deadline_defers():
    """Boundary pin: the data window is half-open, ``[start, deadline)``.

    A transmission that would *finish exactly at* the deadline must defer:
    the window-closing beacon event runs at kernel priority at the deadline
    instant, so a frame completing at that exact time would be processed
    after the window closed.  Backoff is pinned so the first attempt fires
    at ``DIFS + backoff`` and the completion would land on the deadline to
    the last bit of the float.
    """
    rig = make_rig()
    dcf = rig.macs[0].dcf
    backoff = 0.001
    dcf._backoff = lambda exponent=0: backoff
    frame = Frame(0, 1, DummyPacket())
    airtime = rig.channel.transmission_time(frame.size_bytes)
    deadline = (DIFS_S + backoff) + airtime
    outcomes = []
    dcf.submit(frame, lambda f, o, d: outcomes.append((o, d)),
               deadline=deadline)
    rig.sim.run(until=1.0)
    assert outcomes == [(TxOutcome.DEFERRED, set())]
    assert rig.channel.frames_sent == 0


def test_attempt_finishing_inside_deadline_transmits():
    """Companion pin: one microsecond of slack and the frame goes out."""
    rig = make_rig()
    dcf = rig.macs[0].dcf
    backoff = 0.001
    dcf._backoff = lambda exponent=0: backoff
    frame = Frame(0, 1, DummyPacket())
    airtime = rig.channel.transmission_time(frame.size_bytes)
    deadline = (DIFS_S + backoff) + airtime + 1e-6
    outcomes = []
    dcf.submit(frame, lambda f, o, d: outcomes.append((o, d)),
               deadline=deadline)
    rig.sim.run(until=1.0)
    assert outcomes == [(TxOutcome.DELIVERED, {1})]
    assert rig.channel.frames_sent == 1


def _record_backoff_exponents(dcf):
    """Wrap ``dcf._backoff`` to record the exponent of every draw."""
    exponents = []
    orig = dcf._backoff

    def recording(exponent=0):
        exponents.append(exponent)
        return orig(exponent)

    dcf._backoff = recording
    return exponents


def test_retry_backoff_exponent_sequence():
    """Growth-table accounting pin: the k-th retry draws at exponent k.

    ``_backoff``'s exponent is the number of completed, failed
    transmissions — read *after* the retry path increments ``attempts``.
    The first retry must therefore draw at exponent 1 (not reuse 0), and
    the sequence walks 1, 2, ... up to the retry limit.
    """
    rig = make_rig()
    rig.radios[1].sleep()
    dcf = rig.macs[0].dcf
    exponents = _record_backoff_exponents(dcf)
    outcomes = []
    dcf.submit(Frame(0, 1, DummyPacket()), lambda f, o, d: outcomes.append(o))
    rig.sim.run(until=5.0)
    assert outcomes == [TxOutcome.FAILED]
    # Initial DIFS draw at exponent 0, then one draw per retry at the
    # just-incremented attempt count; the final (7th) failure draws nothing.
    assert exponents == [0, 1, 2, 3, 4, 5, 6]


def test_busy_deferral_draws_at_current_retry_exponent():
    """Busy deferrals before the first transmission stay at exponent 0.

    Carrier-sense deferrals do not advance the contention window — only a
    completed failed transmission does — so every draw while another node
    holds the medium uses the submission's current attempt count.
    """
    rig = make_rig()
    submit_outcomes = []
    rig.macs[0].dcf.submit(
        Frame(0, 1, DummyPacket(size_bytes=5000)),  # ~40 ms airtime
        lambda f, o, d: submit_outcomes.append(o))
    dcf2 = rig.macs[2].dcf
    exponents = _record_backoff_exponents(dcf2)
    outcomes = []
    rig.sim.schedule(0.01, lambda: dcf2.submit(
        Frame(2, 1, DummyPacket()), lambda f, o, d: outcomes.append(o)))
    rig.sim.run(until=2.0)
    assert outcomes == [TxOutcome.DELIVERED]
    assert len(exponents) >= 2  # initial draw plus at least one deferral
    assert set(exponents) == {0}


def test_completion_callback_can_submit_more_work():
    """Regression test: DSR sends a RERR from within a failure callback;
    the chained submission must actually transmit (the _next() clobbering
    bug)."""
    rig = make_rig()
    rig.radios[1].sleep()
    outcomes = []

    def on_fail(frame, outcome, delivered):
        outcomes.append(("first", outcome))
        rig.radios[1].wake()
        rig.macs[0].dcf.submit(
            Frame(0, 1, DummyPacket()),
            lambda f, o, d: outcomes.append(("chained", o)),
        )

    rig.macs[0].dcf.submit(Frame(0, 1, DummyPacket()), on_fail)
    rig.sim.run(until=5.0)
    assert ("first", TxOutcome.FAILED) in outcomes
    assert ("chained", TxOutcome.DELIVERED) in outcomes
