"""Tests for the hot-path benchmark harness (repro.obs.bench)."""

import json

import pytest

from repro.obs import bench


def test_stage_benchmarks_report_rates():
    refresh = bench.bench_snapshot_refresh(num_nodes=10, iterations=3,
                                           repeat=1)
    assert refresh["refreshes_per_sec"] > 0
    query = bench.bench_neighbor_query(num_nodes=10, iterations=5, repeat=1)
    assert query["queries_per_sec"] > 0
    assert query["iterations"] == 5 * 10 * 3
    cycle = bench.bench_transmit_finish(num_nodes=10, iterations=5, repeat=1)
    assert cycle["cycles_per_sec"] > 0
    drain = bench.bench_engine_drain(events=500, repeat=1)
    assert drain["events_per_sec"] > 0


def test_run_hotpath_bench_smoke_payload():
    result = bench.run_hotpath_bench("smoke", repeat=1, top_n=3)
    assert result["schema"] == bench.SCHEMA
    assert result["scale"] == "smoke"
    assert set(result["stages"]) == {
        "snapshot_refresh", "neighbor_query", "transmit_finish",
        "engine_drain",
    }
    assert result["events_per_sec"] > 0
    # v2: the workload's event count and wall time are mirrored top-level.
    assert result["events"] == result["workload"]["events"] > 0
    assert result["wall_time_s"] == result["workload"]["wall_time_s"] > 0
    # v4: the workload section is uninstrumented only; the profiled run
    # is its own section with its own timing.
    assert "profiler_top" not in result["workload"]
    profiled = result["workload_profiled"]
    assert profiled["profiler_top"]
    assert profiled["wall_time_s"] > 0
    assert profiled["events_per_sec"] > 0
    # v5: one collector mode, so memory accounting is a single peak.
    memory = result["memory"]
    assert memory["tracemalloc_peak_bytes"] > 0
    assert memory["peak_pending_records"] > 0
    assert memory["timeline_nbytes"] > 0
    assert memory["timeline_samples"] > 0
    assert "peak heap" in bench.format_result(result)
    # Round-trips through JSON (the CI artifact).
    assert json.loads(json.dumps(result)) == result
    assert bench.format_result(result).startswith("hotpath bench [smoke]")


def test_run_hotpath_bench_rejects_unknown_scale():
    with pytest.raises(ValueError):
        bench.run_hotpath_bench("galactic")


def test_run_hotpath_bench_workload_only():
    """The CI shape for --scale large: just the uninstrumented workload."""
    result = bench.run_hotpath_bench("smoke", repeat=1, workload_only=True)
    assert result["events_per_sec"] > 0
    assert "stages" not in result
    assert "memory" not in result
    assert "workload_profiled" not in result
    # format_result and the baseline gate both cope with the lean payload.
    assert bench.format_result(result).startswith("hotpath bench [smoke]")
    ok, _ = bench.compare_to_baseline(
        result, {"scale": "smoke",
                 "events_per_sec": result["events_per_sec"] * 0.9})
    assert ok


def test_large_scale_workload_is_registered():
    """1k-node city-grid cell: fig7 density preserved (area ~10x bench)."""
    large = bench.WORKLOADS["large"]
    assert large["num_nodes"] == 1000
    assert large["arena_w"] == large["arena_h"] == 2121.0
    assert large["sim_time"] == 120.0


def test_compare_to_baseline_gate():
    result = {"scale": "smoke", "events_per_sec": 1000.0}
    ok, msg = bench.compare_to_baseline(
        result, {"scale": "smoke", "events_per_sec": 1200}, 0.30)
    assert ok and "ok:" in msg
    ok, msg = bench.compare_to_baseline(
        result, {"scale": "smoke", "events_per_sec": 2000}, 0.30)
    assert not ok and "REGRESSION" in msg
    # Scale mismatch: the check is skipped, not failed.
    ok, msg = bench.compare_to_baseline(
        result, {"scale": "bench", "events_per_sec": 99999}, 0.30)
    assert ok and "skipped" in msg
    # A baseline without a scale tag applies unconditionally.
    ok, _ = bench.compare_to_baseline(
        result, {"events_per_sec": 900}, 0.30)
    assert ok


def _with_memory(payload, peak_bytes):
    return dict(payload, memory={"tracemalloc_peak_bytes": peak_bytes})


def test_compare_to_baseline_memory_gate():
    result = {"scale": "smoke", "events_per_sec": 1000.0}
    baseline = {"scale": "smoke", "events_per_sec": 900.0}
    # Within the 50% headroom: passes and the verdict mentions the heap.
    ok, msg = bench.compare_to_baseline(
        _with_memory(result, 120 * 2**20),
        _with_memory(baseline, 100 * 2**20), 0.30)
    assert ok and "peak heap" in msg
    # Beyond the ceiling: fails even though throughput is fine.
    ok, msg = bench.compare_to_baseline(
        _with_memory(result, 160 * 2**20),
        _with_memory(baseline, 100 * 2**20), 0.30)
    assert not ok and "REGRESSION" in msg and "heap" in msg
    # Tighter custom headroom.
    ok, _ = bench.compare_to_baseline(
        _with_memory(result, 120 * 2**20),
        _with_memory(baseline, 100 * 2**20), 0.30,
        max_memory_regression=0.10)
    assert not ok
    # A baseline without a memory section: the memory gate is skipped.
    ok, msg = bench.compare_to_baseline(
        _with_memory(result, 500 * 2**20), baseline, 0.30)
    assert ok


def test_write_and_load_json_roundtrip(tmp_path):
    payload = {"schema": bench.SCHEMA, "scale": "smoke",
               "events_per_sec": 123.0}
    path = str(tmp_path / "bench.json")
    assert bench.write_json(payload, path) == path
    assert bench.load_json(path) == payload
    (tmp_path / "bad.json").write_text("[1, 2]")
    with pytest.raises(ValueError):
        bench.load_json(str(tmp_path / "bad.json"))
