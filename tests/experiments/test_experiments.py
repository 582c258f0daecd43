"""Tests for the experiment harness (smoke scale)."""

import numpy as np
import pytest

from repro.experiments import runner, scenarios
from repro.experiments.parallel import run_grid
from repro.experiments.sweep import sweep as run_sweep
from repro.experiments.scenarios import (
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    make_config,
    replication_seed,
)


def tiny_scale(**overrides):
    """Even smaller than SMOKE for harness-mechanics tests."""
    import dataclasses

    return dataclasses.replace(
        SMOKE_SCALE, num_nodes=15, sim_time=10.0, num_connections=2,
        repetitions=2, rates=(0.5,), name="tiny", **overrides,
    )


def test_paper_scale_matches_paper_parameters():
    assert PAPER_SCALE.num_nodes == 100
    assert PAPER_SCALE.arena_w == 1500.0
    assert PAPER_SCALE.arena_h == 300.0
    assert PAPER_SCALE.sim_time == 1125.0
    assert PAPER_SCALE.num_connections == 20
    assert PAPER_SCALE.repetitions == 10
    assert PAPER_SCALE.mobile_pause == 600.0
    assert PAPER_SCALE.mobile_max_speed == 20.0
    assert 0.2 in PAPER_SCALE.rates and 2.0 in PAPER_SCALE.rates


def test_bench_scale_preserves_topology():
    assert BENCH_SCALE.num_nodes == PAPER_SCALE.num_nodes
    assert BENCH_SCALE.arena_w == PAPER_SCALE.arena_w
    assert BENCH_SCALE.num_connections == PAPER_SCALE.num_connections


def test_make_config_mobile_and_static():
    mobile = make_config(SMOKE_SCALE, "rcast", 0.4, mobile=True, seed=2)
    assert mobile.mobility == "waypoint"
    assert mobile.max_speed == SMOKE_SCALE.mobile_max_speed
    static = make_config(SMOKE_SCALE, "rcast", 0.4, mobile=False, seed=2)
    assert static.mobility == "static"
    assert static.packet_rate == 0.4


def test_make_config_overrides():
    config = make_config(SMOKE_SCALE, "rcast", 0.4, mobile=True,
                         opportunistic_tap=True)
    assert config.opportunistic_tap


def test_replication_seeds_distinct_and_stable():
    seeds = {replication_seed(1, i) for i in range(10)}
    assert len(seeds) == 10
    assert replication_seed(1, 3) == replication_seed(1, 3)


def test_run_grid_and_aggregate():
    scale = tiny_scale()
    config = make_config(scale, "rcast", 0.5, mobile=False, seed=4)
    runs = run_grid({None: config}, scale.repetitions)[None]
    assert len(runs) == 2
    agg = runner.aggregate(runs)
    assert agg.scheme == "rcast"
    assert agg.repetitions == 2
    assert agg.total_energy > 0
    assert 0.0 <= agg.pdr <= 1.0
    assert agg.sorted_node_energy.shape == (15,)
    assert np.all(np.diff(agg.sorted_node_energy) >= 0)
    assert "rcast" in agg.describe()


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        runner.aggregate([])


def test_aggregate_handles_infinite_metrics():
    scale = tiny_scale()
    # No connections yields no deliveries -> infinite EPB/overhead.
    config = make_config(scale, "rcast", 0.5, mobile=False, seed=4,
                         num_connections=0)
    agg = runner.aggregate(run_grid({None: config}, 1)[None])
    assert agg.energy_per_bit == float("inf")


def test_sweep_grid_complete():
    scale = tiny_scale()
    result = run_sweep(scale, schemes=("rcast",), rates=(0.5,),
                         scenarios=(False,), seed=1)
    assert set(result.cells) == {("rcast", 0.5, False)}
    agg = result.get("rcast", 0.5, False)
    assert agg.total_energy > 0
    series = result.series("rcast", False, lambda a: a.total_energy)
    assert series == [agg.total_energy]


def test_sweep_progress_callback():
    scale = tiny_scale()
    lines = []
    run_sweep(scale, schemes=("rcast",), rates=(0.5,), scenarios=(False,),
                progress=lines.append)
    assert len(lines) == 1
    assert "static" in lines[0]
