"""Tests for the parallel execution engine (determinism above all)."""

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.parallel import (
    ParallelRunner,
    parallel_map,
    replication_config,
    resolve_workers,
    run_grid,
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


def test_parallel_runner_rejects_bad_workers():
    with pytest.raises(ValueError):
        ParallelRunner(max_workers=0)


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
    pool = ParallelRunner(max_workers=2, on_event=events.append)
    pool.run_grid(configs, 2)
    kinds = [e.kind for e in events]
    assert kinds.count("cell-start") == 2
    assert kinds.count("rep-finish") == 4
    assert kinds.count("cell-finish") == 2
    assert kinds[-1] == "grid-finish"
    finish = events[-1]
    assert finish.completed_items == finish.total_items == 4
    stats = finish.stats
    assert stats is not None and stats is pool.last_stats
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
    ParallelRunner(max_workers=1,
                   on_event=serial_events.append).run_grid(configs, 1)
    assert [e.kind for e in serial_events] == [
        "cell-start", "rep-finish", "cell-finish",
        "cell-start", "rep-finish", "cell-finish",
        "grid-finish",
    ]


def _double(x):
    return 2 * x


def test_parallel_map_preserves_order():
    items = list(range(7))
    assert parallel_map(_double, items) == [2 * i for i in items]
    assert parallel_map(_double, items, workers=3) == [2 * i for i in items]
    assert parallel_map(_double, [], workers=3) == []


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
