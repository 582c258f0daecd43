"""Determinism-sanitizer (DSan) tests: ledgers, hooks, report, CLI.

The contract under test: a sanitized run must be *observationally
identical* to an unsanitized one (byte-identical metrics), clean code
must produce zero findings and rerun-stable ledgers, and an injected
nondeterminism bug must be caught and attributed to the stream that
diverged.
"""

import json
import random

import pytest

from repro.analysis.sanitizer import (
    DeterminismSanitizer,
    StreamLedger,
    diff_reports,
    mix_hash,
)
from repro.cli import main
from repro.network import SimulationConfig, build_network
from repro.sim.events import Event

SMALL = dict(scheme="rcast", num_nodes=16, sim_time=12.0,
             num_connections=3, seed=11)


def run_sanitized(seed=None, **overrides):
    cfg = dict(SMALL, **overrides)
    if seed is not None:
        cfg["seed"] = seed
    network = build_network(SimulationConfig(**cfg))
    metrics = network.run(sanitize=True)
    return network, metrics, network.sanitizer_report


# ----------------------------------------------------------------------
# Stream ledgers
# ----------------------------------------------------------------------


class TestStreamLedger:
    def test_counts_every_draw_method(self):
        """All public draw methods funnel through random()/getrandbits()."""
        rng = random.Random(7)
        ledger = StreamLedger("test")
        ledger.instrument(rng)
        rng.random()
        rng.uniform(0.0, 1.0)
        rng.getrandbits(8)
        rng.randrange(10)
        ledger.restore()
        assert ledger.draws >= 4

    def test_instrumented_values_are_unchanged(self):
        a, b = random.Random(7), random.Random(7)
        ledger = StreamLedger("test")
        ledger.instrument(a)
        assert [a.random() for _ in range(4)] == [b.random()
                                                 for _ in range(4)]
        assert a.gauss(0, 1) == b.gauss(0, 1)
        assert a.getrandbits(16) == b.getrandbits(16)

    def test_same_sequence_same_digest(self):
        digests = []
        for _ in range(2):
            rng = random.Random(3)
            ledger = StreamLedger("test")
            ledger.instrument(rng)
            for _ in range(10):
                rng.random()
            ledger.restore()
            digests.append(ledger.to_dict())
        assert digests[0] == digests[1]
        assert digests[0]["draws"] == 10

    def test_different_sequences_differ(self):
        outcomes = []
        for seed in (1, 2):
            rng = random.Random(seed)
            ledger = StreamLedger("test")
            ledger.instrument(rng)
            rng.random()
            outcomes.append(ledger.to_dict()["digest"])
        assert outcomes[0] != outcomes[1]

    def test_restore_removes_instrumentation(self):
        rng = random.Random(1)
        ledger = StreamLedger("test")
        ledger.instrument(rng)
        rng.random()
        ledger.restore()
        rng.random()
        assert ledger.draws == 1
        assert "random" not in vars(rng)

    def test_double_instrument_raises(self):
        rng = random.Random(1)
        StreamLedger("a").instrument(rng)
        with pytest.raises(RuntimeError):
            StreamLedger("b").instrument(rng)

    def test_mix_hash_is_order_sensitive(self):
        a = mix_hash(mix_hash(0, 1), 2)
        b = mix_hash(mix_hash(0, 2), 1)
        assert a != b


# ----------------------------------------------------------------------
# Interceptor invariant checks (unit level)
# ----------------------------------------------------------------------


class TestInterceptor:
    def make(self):
        # Each test fires a handful of events, far below CANARY_INTERVAL,
        # so no canary sample (which needs an attached network) runs.
        san = DeterminismSanitizer()
        return san, san._build_interceptor()

    def test_normal_sequence_no_findings(self):
        san, intercept = self.make()
        fired = []
        for t in (1.0, 1.0, 2.0):
            intercept(Event(t, fired.append, (t,)))
        assert fired == [1.0, 1.0, 2.0]
        assert san._findings == []
        assert san._hot[2] == 1  # the two t=1.0 events tied

    def test_forged_duplicate_key_is_a_finding(self):
        san, intercept = self.make()
        first = Event(1.0, lambda: None)
        forged = Event(1.0, lambda: None)
        forged._key = first._key  # forged: bypasses the monotonic seq
        intercept(first)
        intercept(forged)
        assert [f.kind for f in san._findings] == ["tie-key-collision"]

    def test_clock_regression_is_a_finding(self):
        san, intercept = self.make()
        intercept(Event(5.0, lambda: None))
        past = Event(5.0, lambda: None)
        past._key = (1.0,) + past._key[1:]
        intercept(past)
        assert [f.kind for f in san._findings] == ["clock-regression"]

    def test_interceptor_marks_events_fired(self):
        _san, intercept = self.make()
        event = Event(1.0, lambda: None)
        intercept(event)
        assert event.fired


# ----------------------------------------------------------------------
# Whole-run behaviour
# ----------------------------------------------------------------------


class TestSanitizedRun:
    def test_metrics_are_byte_identical(self):
        baseline = build_network(SimulationConfig(**SMALL)).run()
        _net, sanitized, _report = run_sanitized()
        assert json.dumps(baseline.to_dict(), sort_keys=True) == \
            json.dumps(sanitized.to_dict(), sort_keys=True)

    def test_healthy_run_is_clean(self):
        _net, _metrics, report = run_sanitized()
        assert report.findings == []
        assert not report.global_random_moved
        assert report.events > 0
        assert report.streams
        assert sum(entry["draws"] for _, entry
                   in sorted(report.streams.items())) > 0

    def test_rerun_ledgers_are_identical(self):
        _n1, _m1, first = run_sanitized()
        _n2, _m2, second = run_sanitized()
        assert diff_reports(first, second) == []
        assert first.to_json() == second.to_json()

    def test_different_seeds_diverge_with_attribution(self):
        _n1, _m1, first = run_sanitized()
        _n2, _m2, second = run_sanitized(seed=12)
        diffs = diff_reports(first, second)
        assert diffs
        assert any("stream" in d for d in diffs)

    def test_report_json_schema(self):
        _net, _metrics, report = run_sanitized()
        payload = json.loads(report.to_json())
        assert payload["version"] == 2
        assert payload["scheme"] == "rcast"
        assert payload["seed"] == SMALL["seed"]
        entry = payload["streams"]["mobility"]
        assert set(entry) == {"draws", "digest"}

    def test_run_without_sanitize_leaves_no_report(self):
        network = build_network(SimulationConfig(**SMALL))
        network.run()
        assert network.sanitizer_report is None

    def test_instrumentation_is_removed_after_run(self):
        network, _metrics, _report = run_sanitized()
        for name, rng in network.rngs.streams().items():
            assert "random" not in vars(rng), name

    def test_sanitizer_findings_reach_the_trace(self):
        from repro.obs.sinks import FilteredSink
        from repro.sim.trace import TraceLog

        network = build_network(SimulationConfig(**SMALL))
        log = TraceLog()
        network.trace = FilteredSink(log, categories=("sanitizer",))
        san = DeterminismSanitizer()
        san.attach(network)
        san._record("test-kind", 1.5, 3, "synthetic finding")
        report = san.detach()
        assert [f.kind for f in report.findings] == ["test-kind"]
        (record,) = log.filter(category="sanitizer")
        assert record.event == "test-kind"
        assert record.node == 3


# ----------------------------------------------------------------------
# Injected-bug detection (acceptance)
# ----------------------------------------------------------------------


class TestInjectedBugRuntime:
    """The runtime half of the injected unseeded-RNG acceptance test.

    The static half lives in ``tests/analysis/test_lint_project.py``
    (R007 flags the unseeded construction); here the same defect class —
    a code path drawing randomness outside its declared stream — is
    planted in a live run and must be caught by the ledger diff.
    """

    def test_stray_stream_draw_is_attributed(self):
        """A component stealing draws from another stream is named."""
        _n1, _m1, healthy = run_sanitized()

        buggy = build_network(SimulationConfig(**SMALL))
        # Plant the bug: mid-run, something draws from the mobility
        # stream outside the mobility model.
        buggy.sim.schedule(
            1.0, lambda: buggy.rngs.stream("mobility").random()
        )
        buggy.run(sanitize=True)
        diffs = diff_reports(healthy, buggy.sanitizer_report)
        assert any(d.startswith("stream 'mobility'") for d in diffs)

    def test_global_random_draw_is_a_finding(self):
        buggy = build_network(SimulationConfig(**SMALL))
        buggy.sim.schedule(1.0, random.random)
        buggy.run(sanitize=True)
        report = buggy.sanitizer_report
        assert report.global_random_moved
        assert "global-random-draw" in [f.kind for f in report.findings]
        _n, _m, healthy = run_sanitized()
        assert any("process-global random" in d
                   for d in diff_reports(healthy, report))


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

RUN_ARGS = [
    "run", "--scheme", "rcast", "--nodes", "12", "--sim-time", "6",
    "--connections", "2", "--seed", "5",
]


class TestCli:
    def test_sanitize_flag_prints_summary(self, capsys):
        assert main(RUN_ARGS + ["--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "0 finding(s)" in out

    def test_sanitize_compare_reports_identical(self, capsys):
        assert main(RUN_ARGS + ["--sanitize-compare"]) == 0
        assert "ledgers identical across reruns" in capsys.readouterr().out

    def test_sanitize_out_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "dsan.json"
        assert main(RUN_ARGS + ["--sanitize-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["version"] == 2
        assert payload["findings"] == []

    def test_sanitize_compare_out_writes_both_runs(self, tmp_path):
        out_path = tmp_path / "dsan.json"
        assert main(RUN_ARGS + ["--sanitize-compare",
                                "--sanitize-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["diffs"] == []
        assert payload["first"]["streams"] == payload["second"]["streams"]
