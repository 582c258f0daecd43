"""Frontier compaction and streaming distribution-summary tests.

Covers the fixed-memory contract: the collector retains only unresolved
records (bounded by the in-flight/drop-grace window, not the run
length), every run carries distribution summaries that agree with the
run-level accumulators, and outcome reversals past the compaction
horizon are surfaced rather than silently miscounted.  The summaries
are additive: a run with the summary accumulators stubbed out yields
every other RunMetrics field bit-for-bit.
"""

import json

import repro.metrics.collector as collector_module

from repro.metrics.collector import (
    DROP_GRACE_S,
    INFLIGHT_HOLD_S,
    MetricsCollector,
)
from repro.network import SimulationConfig, build_network


def _run_config(sim_time, seed=11):
    return SimulationConfig(scheme="rcast", num_nodes=20,
                            sim_time=sim_time, seed=seed)


class TestBoundedRecords:
    def test_pending_records_stay_bounded_on_long_run(self):
        """Retained records track the resolution window, not run length.

        Doubling the run length roughly doubles ``data_sent`` but must
        NOT double the peak retained-record count — the frontier folds
        settled records as it advances, so the peak is set by the
        traffic rate times the drop-grace window.
        """
        peaks = {}
        sent = {}
        for sim_time in (150.0, 300.0):
            network = build_network(_run_config(sim_time))
            peak = 0

            def observe(net):
                nonlocal peak
                peak = max(peak, net.metrics.pending_records)

            metrics = network.run(observer=observe, observe_period=1.0)
            peaks[sim_time] = peak
            sent[sim_time] = metrics.data_sent
            assert metrics.compaction_conflicts == 0
        # Workload grew ~2x...
        assert sent[300.0] > 1.5 * sent[150.0]
        # ...but the retained window did not (allow 35% for ramp-up:
        # the first drop-grace window is still filling at t=150s).
        assert peaks[300.0] < 1.35 * peaks[150.0]
        # And the window is a strict subset of the total workload.
        assert peaks[300.0] < sent[300.0] / 2

    def test_finalize_drains_all_records(self):
        network = build_network(_run_config(60.0))
        network.run()
        assert network.metrics.pending_records == 0


class TestCompactionSemantics:
    def test_drop_waits_out_grace_then_folds(self):
        collector = MetricsCollector(4)
        collector.data_originated(1, 0, 3, 10.0, 512)
        collector.data_dropped(1, "ifq_overflow")
        assert collector.pending_records == 1  # grace not yet elapsed
        collector.data_originated(2, 0, 3, 10.0 + DROP_GRACE_S, 512)
        assert collector.pending_records == 1  # uid 1 folded, 2 pending
        metrics = collector.finalize("rcast", 100.0, [0.0] * 4, [0.0] * 4)
        assert metrics.drop_reasons == {"ifq_overflow": 1, "in_flight": 1}
        assert metrics.compaction_conflicts == 0

    def test_redelivery_within_grace_counts_as_delivered(self):
        collector = MetricsCollector(4)
        collector.data_originated(1, 0, 3, 10.0, 512)
        collector.data_dropped(1, "ifq_overflow")
        collector.data_delivered(1, 25.0)  # revived before the grace ends
        metrics = collector.finalize("rcast", 100.0, [0.0] * 4, [0.0] * 4)
        assert metrics.data_delivered == 1
        assert metrics.drop_reasons == {}
        assert metrics.avg_delay == 15.0

    def test_delivery_after_fold_is_a_conflict(self):
        collector = MetricsCollector(4)
        collector.data_originated(1, 0, 3, 10.0, 512)
        collector.data_dropped(1, "ifq_overflow")
        # Advance the clock far past the grace so uid 1 folds undelivered.
        collector.data_originated(2, 0, 3, 10.0 + 2 * DROP_GRACE_S, 512)
        assert collector.compaction_conflicts == 0
        collector.data_delivered(1, 10.0 + 2 * DROP_GRACE_S + 1.0)
        assert collector.compaction_conflicts == 1
        metrics = collector.finalize("rcast", 500.0, [0.0] * 4, [0.0] * 4)
        assert metrics.compaction_conflicts == 1
        assert metrics.drop_reasons["ifq_overflow"] == 1

    def test_inflight_head_folds_at_safety_horizon(self):
        collector = MetricsCollector(4)
        collector.data_originated(1, 0, 3, 0.0, 512)
        collector.data_originated(2, 0, 3, INFLIGHT_HOLD_S + 1.0, 512)
        assert collector.pending_records == 1  # uid 1 aged out
        metrics = collector.finalize("rcast", 2000.0, [0.0] * 4, [0.0] * 4)
        assert metrics.drop_reasons == {"in_flight": 2}

    def test_duplicate_delivery_counts_once(self):
        collector = MetricsCollector(4)
        collector.data_originated(1, 0, 3, 1.0, 512)
        collector.data_delivered(1, 2.0)
        collector.data_delivered(1, 3.0)
        metrics = collector.finalize("rcast", 10.0, [0.0] * 4, [0.0] * 4)
        assert metrics.data_delivered == 1
        assert metrics.avg_delay == 1.0

    def test_unknown_uid_delivery_is_ignored(self):
        collector = MetricsCollector(4)
        collector.data_delivered(99, 1.0)
        collector.data_dropped(99, "no_route")
        assert collector.compaction_conflicts == 0

    def test_folded_set_is_capped(self):
        collector = MetricsCollector(4)
        from repro.metrics.collector import _FOLDED_SET_CAP

        for uid in range(_FOLDED_SET_CAP + 100):
            collector.data_originated(uid, 0, 3, float(uid), 512)
            collector.data_dropped(uid, "no_route")
        collector.data_originated(10**9, 0, 3, 10.0**9, 512)
        assert len(collector._folded_undelivered) <= _FOLDED_SET_CAP


class _NullStats:
    """Summary accumulator that records nothing (a "batch" run)."""

    def __init__(self, *args, **kwargs):
        pass

    def push(self, x):
        pass

    def summary(self):
        return {"reservoir": ()}


class TestStreamingEquivalence:
    def test_streaming_metrics_bit_identical_to_batch(self, monkeypatch):
        stream_d = build_network(_run_config(60.0)).run().to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(collector_module, "StreamStats", _NullStats)
            batch_d = build_network(_run_config(60.0)).run().to_dict()
        assert stream_d.pop("delay_dist")["n"] > 0
        assert stream_d.pop("energy_per_bit_dist")["n"] > 0
        batch_d.pop("delay_dist")
        batch_d.pop("energy_per_bit_dist", None)
        assert (json.dumps(stream_d, sort_keys=True)
                == json.dumps(batch_d, sort_keys=True))

    def test_streaming_summaries_are_consistent(self):
        metrics = build_network(_run_config(60.0)).run()
        exported = metrics.to_dict()
        assert exported["delay_dist"] == metrics.delay_dist
        assert exported["energy_per_bit_dist"] == metrics.energy_per_bit_dist
        # Same seed, same summaries (reservoir included): they draw only
        # from private, seed-derived ``obs:*`` streams.
        rerun = build_network(_run_config(60.0)).run().to_dict()
        assert (json.dumps(rerun, sort_keys=True)
                == json.dumps(exported, sort_keys=True))
        dist = metrics.delay_dist
        assert dist["n"] == metrics.data_delivered
        assert abs(dist["mean"] - metrics.avg_delay) < 1e-12
        assert dist["min"] <= dist["quantiles"]["p50"] <= dist["max"]
        assert len(dist["reservoir"]) <= 64
        epb = metrics.energy_per_bit_dist
        assert epb is not None
        assert epb["n"] == metrics.num_nodes
        assert abs(epb["mean"] - metrics.energy_per_bit) < 1e-9 * epb["mean"]
