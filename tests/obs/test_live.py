"""Tests for live progress monitors and the telemetry JSONL feed."""

import io
import json

import pytest

from repro.experiments.parallel import ProgressEvent, RunnerStats
from repro.network import SimulationConfig, build_network
from repro.obs import live
from repro.obs.live import LiveRunMonitor, LiveSweepMonitor, TelemetryWriter
from repro.obs.manifest import RunManifest


@pytest.fixture
def no_rate_limit(monkeypatch):
    """Render every update: the live line's rate limit set to zero."""
    monkeypatch.setattr(live, "LIVE_RENDER_INTERVAL_S", 0.0)


def _manifest(events=1000, faults=None):
    return RunManifest(scheme="rcast", seed=1, config_hash="x" * 64,
                       wall_time=0.5, events_processed=events,
                       cell="(20, 'rcast')", rep=0, fault_counts=faults)


class TestTelemetryWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"kind": "run-tick", "virtual_time": 1.0})
            writer.write({"kind": "run-tick", "virtual_time": 2.0})
            assert writer.written == 2
            assert writer.path == path
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["virtual_time"] for ln in lines] == [1.0, 2.0]

    def test_write_after_close_is_noop(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.close()
        writer.close()
        writer.write({"kind": "late"})
        assert writer.written == 0


class TestLiveRunMonitor:
    def test_renders_and_feeds_telemetry(self, tmp_path, no_rate_limit):
        config = SimulationConfig(scheme="rcast", num_nodes=10,
                                  num_connections=5, sim_time=10.0, seed=5)
        network = build_network(config)
        stream = io.StringIO()
        telemetry = TelemetryWriter(tmp_path / "t.jsonl")
        monitor = LiveRunMonitor(config.sim_time, stream=stream,
                                 telemetry=telemetry)
        ticks = []

        def observe(net):
            ticks.append(net.sim.now)
            monitor.observe(net)

        network.run(observer=observe, observe_period=1.0)
        monitor.finish()
        telemetry.close()
        assert ticks
        output = stream.getvalue()
        assert "/10s" in output
        assert "ev/s" in output
        assert "pending=" in output
        records = [json.loads(ln) for ln
                   in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert len(records) == len(ticks)
        assert all(r["kind"] == "run-tick" for r in records)
        times = [r["virtual_time"] for r in records]
        assert times == sorted(times)
        assert records[-1]["progress"] == 1.0

    def test_pipe_mode_writes_full_lines(self, no_rate_limit):
        stream = io.StringIO()  # isatty() is False: one line per render
        monitor = LiveRunMonitor(100.0, stream=stream)
        network = build_network(SimulationConfig(
            scheme="rcast", num_nodes=5, num_connections=2,
            sim_time=5.0, seed=5))
        monitor.observe(network)
        monitor.observe(network)
        monitor.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert not lines[0].startswith("\r")

    def test_rate_limit_drops_updates(self, monkeypatch):
        monkeypatch.setattr(live, "LIVE_RENDER_INTERVAL_S", 3600.0)
        stream = io.StringIO()
        monitor = LiveRunMonitor(100.0, stream=stream)
        network = build_network(SimulationConfig(
            scheme="rcast", num_nodes=5, num_connections=2,
            sim_time=5.0, seed=5))
        monitor.observe(network)  # first render always lands
        monitor.observe(network)
        monitor.observe(network)
        assert len(stream.getvalue().splitlines()) == 1

    def test_rejects_nonpositive_sim_time(self):
        with pytest.raises(ValueError):
            LiveRunMonitor(0.0)


class TestLiveSweepMonitor:
    def test_accumulates_rep_events(self, tmp_path, no_rate_limit):
        stream = io.StringIO()
        telemetry = TelemetryWriter(tmp_path / "t.jsonl")
        monitor = LiveSweepMonitor(stream=stream, telemetry=telemetry)
        monitor(ProgressEvent(kind="cell-start", cell=(20, "rcast"),
                              completed_items=0, total_items=2, elapsed=0.0))
        monitor(ProgressEvent(kind="rep-finish", cell=(20, "rcast"),
                              completed_items=1, total_items=2, elapsed=0.5,
                              manifest=_manifest(events=1000,
                                                 faults={"crash": 2})))
        monitor(ProgressEvent(
            kind="grid-finish", completed_items=2, total_items=2,
            elapsed=1.0,
            stats=RunnerStats(workers=2, items=2, elapsed=1.0, busy=1.5)))
        telemetry.close()
        output = stream.getvalue()
        assert "[1/2]" in output
        assert "utilization 75%" in output
        assert "faults[crash=2]" in output
        records = [json.loads(ln) for ln
                   in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert [r["kind"] for r in records] == [
            "cell-start", "rep-finish", "grid-finish"]
        assert records[1]["manifest"]["events_processed"] == 1000
        assert records[2]["utilization"] == 0.75
        assert records[2]["workers"] == 2

    def test_eta_before_any_completion_is_inf(self, no_rate_limit):
        stream = io.StringIO()
        monitor = LiveSweepMonitor(stream=stream)
        monitor(ProgressEvent(kind="cell-start", cell=(20, "rcast"),
                              completed_items=0, total_items=4, elapsed=0.0))
        assert "eta   inf" in stream.getvalue()
