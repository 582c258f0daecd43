"""Tests for the parallel execution engine (determinism above all)."""

import dataclasses
from concurrent.futures import Future

import pytest

from repro.experiments import parallel, runner
from repro.experiments.parallel import (
    replication_config,
    replications,
    resolve_workers,
    run_grid,
    run_jobs,
)
from repro.experiments.scenarios import (
    SMOKE_SCALE,
    make_config,
    replication_seed,
)
from repro.experiments.sweep import sweep


def tiny_scale(**overrides):
    """Very small scale so parallel-mechanics tests run in seconds."""
    return dataclasses.replace(
        SMOKE_SCALE, num_nodes=15, sim_time=10.0, num_connections=2,
        repetitions=2, rates=(0.5,), name="tiny", **overrides,
    )


def test_resolve_workers():
    import os

    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_replication_config_derives_documented_seeds():
    # Both the serial path and the pool workers derive per-rep seeds via
    # replication_config; the mapping must be replication_seed exactly.
    config = make_config(tiny_scale(), "rcast", 0.5, mobile=False, seed=7)
    for rep in range(5):
        derived = replication_config(config, rep)
        assert derived.seed == replication_seed(config.seed, rep)
        # Only the seed differs from the base config.
        assert dataclasses.replace(derived, seed=config.seed) == config


def test_run_grid_parallel_matches_serial():
    # Regression: both paths must derive the same per-rep seeds and hence
    # produce identical runs, in repetition order.
    scale = tiny_scale()
    config = make_config(scale, "rcast", 0.5, mobile=False, seed=4)
    serial = run_grid({None: config}, scale.repetitions)[None]
    pooled = run_grid({None: config}, scale.repetitions, workers=2)[None]
    assert len(serial) == len(pooled) == scale.repetitions
    for a, b in zip(serial, pooled):
        assert a.to_dict() == b.to_dict()


def test_sweep_parallel_determinism():
    # Same seed => bit-identical AggregateMetrics for workers=1 and
    # workers=4, for every cell of the grid.
    scale = tiny_scale()
    kwargs = dict(schemes=("rcast", "ieee80211"), rates=(0.5,),
                  scenarios=(False,), seed=1)
    serial = sweep(scale, workers=1, **kwargs)
    pooled = sweep(scale, workers=4, **kwargs)
    assert set(serial.cells) == set(pooled.cells)
    for key in serial.cells:
        assert serial.cells[key] == pooled.cells[key], key


def test_run_grid_orders_results_by_repetition():
    scale = tiny_scale()
    configs = {
        "a": make_config(scale, "rcast", 0.5, mobile=False, seed=9),
    }
    grid = run_grid(configs, 2, workers=2)
    assert list(grid) == ["a"]
    # rep i must be the run with the i-th derived seed: recompute serially.
    for rep, metrics in enumerate(grid["a"]):
        from repro.network import run_simulation

        expected = run_simulation(replication_config(configs["a"], rep))
        assert metrics.to_dict() == expected.to_dict()


def test_progress_events_and_stats():
    scale = tiny_scale()
    configs = {
        name: make_config(scale, "rcast", 0.5, mobile=False, seed=s)
        for name, s in (("x", 1), ("y", 2))
    }
    events = []
    run_grid(configs, 2, workers=2, on_event=events.append)
    kinds = [e.kind for e in events]
    assert kinds.count("cell-start") == 2
    assert kinds.count("rep-finish") == 4
    assert kinds.count("cell-finish") == 2
    assert kinds[-1] == "grid-finish"
    finish = events[-1]
    assert finish.completed_items == finish.total_items == 4
    stats = finish.stats
    assert stats is not None
    assert stats.items == 4 and stats.workers == 2
    assert stats.elapsed > 0 and stats.busy > 0
    assert stats.utilization >= 0.0
    # Every rep-finish carries a provenance manifest.
    for event in events:
        if event.kind == "rep-finish":
            assert event.manifest is not None
            assert event.manifest.scheme == "rcast"
            assert event.manifest.wall_time > 0
            assert event.manifest.events_processed > 0
        else:
            assert event.manifest is None
    # Serial mode emits the same event structure.
    serial_events = []
    run_grid(configs, 1, on_event=serial_events.append)
    assert [e.kind for e in serial_events] == [
        "cell-start", "rep-finish", "cell-finish",
        "cell-start", "rep-finish", "cell-finish",
        "grid-finish",
    ]
    assert serial_events[-1].stats.workers == 1


def _seed_of(config):
    return config.seed


CALLS = []


def _counted_seed_of(config):
    CALLS.append(config.seed)
    return config.seed


def _seed_jobs(seeds, fn=_seed_of):
    config = make_config(tiny_scale(), "rcast", 0.5, mobile=False)
    return {(f"c{i}", 0): (fn, dataclasses.replace(config, seed=seed))
            for i, seed in enumerate(seeds)}


def test_run_jobs_preserves_key_order():
    seeds = [7, 3, 9, 1, 5, 2, 8]
    for workers in (None, 3):
        results = run_jobs(_seed_jobs(seeds), workers=workers)
        assert list(results) == [(f"c{i}", 0) for i in range(len(seeds))]
        assert list(results.values()) == seeds
    assert run_jobs({}, workers=3) == {}


def test_run_jobs_runs_each_distinct_job_once():
    CALLS.clear()
    jobs = _seed_jobs([4, 6, 4, 6, 4], fn=_counted_seed_of)
    events = []
    results = run_jobs(jobs, on_event=events.append)
    assert list(results.values()) == [4, 6, 4, 6, 4]
    assert CALLS == [4, 6]
    # Each distinct job is reported once, under its first key.
    assert [e.cell for e in events if e.kind == "rep-finish"] == ["c0", "c1"]
    assert events[-1].total_items == 2
    # A different function of the same config is a different job.
    jobs[("other", 0)] = (_seed_of, jobs[("c0", 0)][1])
    CALLS.clear()
    assert run_jobs(jobs)[("other", 0)] == 4
    assert CALLS == [4, 6]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers,seeds,size", [
    (8, [1, 2, 3, 1], 3),     # three distinct jobs: three processes
    (2, [1, 2, 3], 2),
    (4, [1], None),           # one job runs in-process: no pool at all
    (4, [1, 1, 1], None),
    (1, [1, 2, 3], None),
    (None, [1, 2, 3], None),
])
def test_pool_is_no_larger_than_the_distinct_jobs(monkeypatch, workers,
                                                  seeds, size):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    events = []
    results = run_jobs(_seed_jobs(seeds), workers=workers,
                       on_event=events.append)
    assert list(results.values()) == seeds
    assert _RecordingPool.sizes == ([] if size is None else [size])
    assert events[-1].stats.workers == (size or 1)


def test_replications_key_cells_by_repetition():
    config = make_config(tiny_scale(), "rcast", 0.5, mobile=False, seed=3)
    jobs = replications({"a": config, "b": config}, 2)
    assert list(jobs) == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    assert jobs[("a", 1)][1] == replication_config(config, 1)
    with pytest.raises(ValueError):
        replications({"a": config}, 0)


def test_aggregate_equality_is_ndarray_aware():
    scale = tiny_scale()
    config = make_config(scale, "rcast", 0.5, mobile=False, seed=4)
    runs = run_grid({None: config}, 2)[None]
    a = runner.aggregate(runs)
    b = runner.aggregate(runs)
    assert a == b                      # would raise with the generated eq
    assert a != dataclasses.replace(b, pdr=b.pdr + 0.5)
    assert a != "not an aggregate"


def test_aggregate_counts_dropped_replications():
    scale = tiny_scale()
    config = make_config(scale, "rcast", 0.5, mobile=False, seed=4,
                         num_connections=0)
    runs = run_grid({None: config}, 2)[None]
    with pytest.warns(runner.NonFiniteReplicationWarning):
        agg = runner.aggregate(runs)
    # No traffic => every rep's EPB/overhead is infinite and gets dropped.
    assert agg.dropped_replications["energy_per_bit"] == 2
    assert agg.dropped_replications["normalized_overhead"] == 2
    assert agg.energy_per_bit == float("inf")
    assert "non-finite reps dropped" in agg.describe()
    # Finite metrics are untouched.
    assert "total_energy" not in agg.dropped_replications
