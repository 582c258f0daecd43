"""Unit tests for the fixed-memory online aggregators."""

import math
import statistics

import pytest

from repro.obs.stream import (
    HISTOGRAM_PER_DECADE,
    ReservoirSampler,
    StreamingHistogram,
    StreamStats,
    Welford,
)


class TestWelford:
    def test_matches_two_pass_moments(self):
        values = [0.3, 1.7, 2.2, 0.05, 9.1, 4.4, 4.4, 0.0]
        w = Welford()
        for x in values:
            w.push(x)
        assert w.n == len(values)
        assert w.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert w.variance == pytest.approx(statistics.variance(values),
                                           rel=1e-12)

    def test_degenerate_counts(self):
        w = Welford()
        assert w.variance == 0.0
        w.push(5.0)
        assert w.mean == 5.0
        assert w.variance == 0.0  # undefined below two values

    def test_to_dict(self):
        w = Welford()
        w.push(1.0)
        w.push(3.0)
        assert w.to_dict() == {"n": 2.0, "mean": 2.0, "variance": 2.0}


class TestReservoirSampler:
    def test_keeps_everything_below_k(self):
        r = ReservoirSampler(8, seed=1)
        for x in range(5):
            r.push(float(x))
        assert r.values() == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert len(r) == 5
        assert r.n == 5

    def test_same_seed_same_sample(self):
        a = ReservoirSampler(4, seed=99, name="delay")
        b = ReservoirSampler(4, seed=99, name="delay")
        for x in range(1000):
            a.push(float(x))
            b.push(float(x))
        assert a.values() == b.values()
        assert len(a) == 4

    def test_different_seed_or_name_different_stream(self):
        base = ReservoirSampler(4, seed=1, name="delay")
        other_seed = ReservoirSampler(4, seed=2, name="delay")
        other_name = ReservoirSampler(4, seed=1, name="energy")
        for x in range(1000):
            for r in (base, other_seed, other_name):
                r.push(float(x))
        assert base.values() != other_seed.values()
        assert base.values() != other_name.values()

    def test_sample_is_subset_of_stream(self):
        r = ReservoirSampler(16, seed=3)
        stream = [float(x) for x in range(500)]
        for x in stream:
            r.push(x)
        assert set(r.values()) <= set(stream)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0, seed=1)


class TestStreamingHistogram:
    def test_counts_order_independent(self):
        values = [0.001, 0.01, 0.5, 2.0, 750.0, 0.5, 1e-9, 1e9]
        a = StreamingHistogram()
        b = StreamingHistogram()
        for x in values:
            a.push(x)
        for x in reversed(values):
            b.push(x)
        assert a.counts == b.counts
        assert a.nonzero_buckets() == b.nonzero_buckets()

    def test_under_and_overflow_buckets(self):
        h = StreamingHistogram()
        h.push(1e-6)   # below 10**HISTOGRAM_LO_EXP
        h.push(1e6)    # above 10**HISTOGRAM_HI_EXP
        h.push(-3.0)   # negatives land in underflow too
        assert h.counts[0] == 2
        assert h.counts[-1] == 1
        assert h.n == 3

    def test_quantiles_bounded_by_observed_range(self):
        h = StreamingHistogram()
        values = [0.002, 0.04, 0.04, 0.7, 3.5, 90.0]
        for x in values:
            h.push(x)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            est = h.quantile(q)
            assert min(values) <= est <= max(values)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

    def test_quantile_accuracy_within_bucket_resolution(self):
        h = StreamingHistogram()
        values = [0.1 * (1.0 + i / 100.0) for i in range(101)]
        for x in values:
            h.push(x)
        true_median = statistics.median(values)
        # The estimate must land within one log bucket of the truth.
        bucket_width = 10.0 ** (1.0 / HISTOGRAM_PER_DECADE) - 1.0
        assert h.quantile(0.5) == pytest.approx(true_median, rel=bucket_width)

    def test_empty_quantile_is_zero(self):
        assert StreamingHistogram().quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(1.5)

    def test_to_dict_sparse(self):
        h = StreamingHistogram()
        d = h.to_dict()
        assert d["n"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["buckets"] == []
        h.push(0.5)
        d = h.to_dict()
        assert d["min"] == 0.5 and d["max"] == 0.5
        assert len(d["buckets"]) == 1
        (bucket,) = d["buckets"]
        assert bucket[1] == 1


class TestStreamStats:
    def test_summary_shape(self):
        stats = StreamStats("delay", seed=7)
        stats.extend([0.01, 0.02, 0.3, 0.3, 1.5])
        s = stats.summary()
        assert s["n"] == 5
        assert s["mean"] == pytest.approx(statistics.fmean(
            [0.01, 0.02, 0.3, 0.3, 1.5]))
        assert s["min"] == 0.01
        assert s["max"] == 1.5
        assert set(s["quantiles"]) == {"p50", "p90", "p99"}
        assert s["histogram"]["n"] == 5
        assert s["reservoir"] == [0.01, 0.02, 0.3, 0.3, 1.5]

    def test_fixed_memory(self):
        """State size is independent of how many values are folded."""
        stats = StreamStats("delay", seed=7, reservoir_k=8)
        for i in range(10_000):
            stats.push(math.sin(i) ** 2)
        assert stats.n == 10_000
        assert len(stats.reservoir) == 8
        assert len(stats.histogram.counts) == len(stats.histogram.edges) + 1

    def test_empty_summary(self):
        s = StreamStats("delay", seed=7).summary()
        assert s["n"] == 0
        assert s["min"] is None and s["max"] is None
        assert s["reservoir"] == []
