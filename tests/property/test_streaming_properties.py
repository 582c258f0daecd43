"""Property-based tests for streaming telemetry.

Every run's distribution summaries must agree with the run-level
accumulators they shadow (count, mean, observed range), and the
reservoir sample must be a pure function of (seed, stream name, value
order) — independent of what any other stream does around it, which is
what makes serial and parallel sweeps agree.
"""

import json
import math
import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import SimulationConfig, build_network
from repro.obs.stream import (
    ReservoirSampler,
    StreamingHistogram,
    StreamStats,
    Welford,
)

finite_floats = st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(
    scheme=st.sampled_from(["rcast", "psm", "odpm"]),
    num_nodes=st.integers(min_value=8, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=6, deadline=None)
def test_every_run_carries_consistent_summaries(scheme, num_nodes, seed):
    """The summaries shadow the run-level delay / energy-per-bit figures."""
    config = SimulationConfig(
        scheme=scheme, num_nodes=num_nodes,
        num_connections=max(2, num_nodes // 3),
        sim_time=25.0, seed=seed)
    metrics = build_network(config).run()
    exported = json.loads(json.dumps(metrics.to_dict()))
    dist = exported["delay_dist"]
    assert dist["n"] == metrics.data_delivered
    assert math.isclose(dist["mean"], metrics.avg_delay,
                        rel_tol=1e-9, abs_tol=1e-12)
    if metrics.data_delivered:
        assert dist["min"] <= dist["quantiles"]["p50"] <= dist["max"]
        epb = exported["energy_per_bit_dist"]
        assert epb["n"] == metrics.num_nodes
        assert math.isclose(epb["mean"], metrics.energy_per_bit,
                            rel_tol=1e-9)
    else:
        assert "energy_per_bit_dist" not in exported


@given(values=st.lists(finite_floats, min_size=2, max_size=200))
@settings(max_examples=100, deadline=None)
def test_welford_matches_two_pass(values):
    w = Welford()
    for x in values:
        w.push(x)
    assert abs(w.mean - statistics.fmean(values)) <= (
        1e-9 * max(abs(v) for v in values))
    two_pass = statistics.variance(values)
    assert abs(w.variance - two_pass) <= 1e-6 * max(two_pass, 1.0)


@given(values=st.lists(finite_floats, min_size=1, max_size=300),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_reservoir_deterministic_and_uniformly_drawn(values, seed):
    a = ReservoirSampler(16, seed, name="delay")
    b = ReservoirSampler(16, seed, name="delay")
    for x in values:
        a.push(x)
        b.push(x)
    assert a.values() == b.values()
    assert len(a) == min(16, len(values))
    assert set(a.values()) <= set(values)


@given(values=st.lists(finite_floats, min_size=1, max_size=100),
       noise=st.lists(finite_floats, min_size=1, max_size=100),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_reservoir_independent_of_interleaving(values, noise, seed):
    """Serial ≡ parallel: another stream's draws never perturb ours.

    A worker processing streams back-to-back (serial) and workers
    processing them simultaneously (parallel) interleave pushes
    differently; because every reservoir owns a private derived RNG
    stream, the sample depends only on its own (seed, name, order).
    """
    serial = ReservoirSampler(8, seed, name="delay")
    other = ReservoirSampler(8, seed, name="energy")
    for x in values:
        serial.push(x)
    for x in noise:
        other.push(x)

    interleaved = ReservoirSampler(8, seed, name="delay")
    other2 = ReservoirSampler(8, seed, name="energy")
    for i in range(max(len(values), len(noise))):
        if i < len(noise):
            other2.push(noise[i])
        if i < len(values):
            interleaved.push(values[i])
    assert interleaved.values() == serial.values()
    assert other2.values() == other.values()


@given(values=st.lists(finite_floats, min_size=1, max_size=200),
       q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_histogram_quantiles_stay_in_observed_range(values, q):
    h = StreamingHistogram()
    for x in values:
        h.push(x)
    assert min(values) <= h.quantile(q) <= max(values)
    assert h.n == len(values)


@given(values=st.lists(finite_floats, min_size=1, max_size=200),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_stream_stats_summary_invariants(values, seed):
    stats = StreamStats("delay", seed)
    stats.extend(values)
    s = stats.summary()
    assert s["n"] == len(values)
    assert s["min"] == min(values)
    assert s["max"] == max(values)
    quantiles = s["quantiles"]
    assert s["min"] <= quantiles["p50"] <= quantiles["p90"] <= s["max"]
    assert s["histogram"]["n"] == len(values)
    assert len(s["reservoir"]) == min(64, len(values))
