"""Tests for the timeline recorder."""

import pytest

from repro.network import build_network
from repro.obs.metrics import TimelineRecorder

from tests.conftest import line_config


class TestTimelineRecorder:
    def test_rejects_negative_period(self):
        with pytest.raises(ValueError):
            TimelineRecorder(period=-1.0)

    def test_records_samples_during_run(self):
        config = line_config("psm", n=3, sim_time=5.0)
        network = build_network(config)
        recorder = TimelineRecorder(period=1.0)
        network.run(observer=recorder.observe, observe_period=recorder.period)
        assert len(recorder) == 5
        times = [s.time for s in recorder.samples]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        for sample in recorder.samples:
            assert len(sample.node_energy) == 3
            assert len(sample.node_residual) == 3
            assert 0 <= sample.awake_nodes <= 3
            assert sample.awake_fraction == sample.awake_nodes / 3
            assert sample.queue_depth >= 0
            assert sample.pending_events >= 0
        # energy is cumulative, so samples are non-decreasing
        totals = [sum(s.node_energy) for s in recorder.samples]
        assert totals == sorted(totals)
        processed = [s.processed_events for s in recorder.samples]
        assert processed == sorted(processed)

    def test_timeline_is_deterministic(self):
        config = line_config("rcast", n=3, sim_time=5.0)
        dicts = []
        for _ in range(2):
            network = build_network(config)
            recorder = TimelineRecorder(period=0.5)
            network.run(observer=recorder.observe,
                        observe_period=recorder.period)
            dicts.append(recorder.to_dict())
        assert dicts[0] == dicts[1]

    def test_observer_does_not_change_metrics(self):
        config = line_config("psm", n=3, sim_time=10.0)
        plain = build_network(config).run()
        observed_net = build_network(config)
        recorder = TimelineRecorder(period=0.25)
        observed = observed_net.run(observer=recorder.observe,
                                    observe_period=recorder.period)
        assert plain.to_dict() == observed.to_dict()

    def test_to_dict_shape(self):
        recorder = TimelineRecorder(period=2.0)
        out = recorder.to_dict()
        assert out == {"period": 2.0, "samples": []}

    def test_decimates_at_capacity(self):
        config = line_config("psm", n=3, sim_time=40.0)
        network = build_network(config)
        recorder = TimelineRecorder(period=1.0, capacity=16)
        network.run(observer=recorder.observe, observe_period=recorder.period)
        # 40 observe calls through a 16-slot buffer: stride doubled to 4.
        assert recorder.stride == 4
        assert len(recorder) <= recorder.capacity
        times = [s.time for s in recorder.samples]
        assert times == sorted(times)
        # Retained samples are uniformly spaced at period * stride.
        deltas = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert deltas == {4.0}

    def test_memory_is_bounded_by_capacity(self):
        config = line_config("psm", n=3, sim_time=5.0)
        short = TimelineRecorder(period=0.05, capacity=32)
        network = build_network(config)
        network.run(observer=short.observe, observe_period=short.period)
        nbytes_short = short.nbytes
        long_config = line_config("psm", n=3, sim_time=40.0)
        long = TimelineRecorder(period=0.05, capacity=32)
        network = build_network(long_config)
        network.run(observer=long.observe, observe_period=long.period)
        assert long.nbytes == nbytes_short  # 8x the samples, same bytes

    def test_decimation_is_deterministic(self):
        config = line_config("rcast", n=3, sim_time=30.0)
        dicts = []
        for _ in range(2):
            network = build_network(config)
            recorder = TimelineRecorder(period=0.5, capacity=8)
            network.run(observer=recorder.observe,
                        observe_period=recorder.period)
            dicts.append(recorder.to_dict())
        assert dicts[0] == dicts[1]

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            TimelineRecorder(capacity=1)
