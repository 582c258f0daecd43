"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_run_command_prints_summary(capsys):
    code = main([
        "run", "--scheme", "rcast", "--nodes", "15", "--rate", "0.5",
        "--sim-time", "8", "--connections", "2", "--static", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rcast:" in out
    assert "transmissions:" in out
    assert "wall time" in out


def test_run_command_mobile(capsys):
    code = main([
        "run", "--scheme", "odpm", "--nodes", "12", "--rate", "0.5",
        "--sim-time", "6", "--connections", "2", "--speed", "2",
        "--pause", "0", "--seed", "4",
    ])
    assert code == 0
    assert "odpm:" in capsys.readouterr().out


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "bogus"])


@pytest.mark.parametrize("command", ["run", "profile"])
def test_bad_config_exits_with_message(command):
    """A bad config ends the command with one error line, no traceback."""
    with pytest.raises(SystemExit, match="error: cannot pick 20 distinct"):
        main([command, "--nodes", "5"])  # 20 connections by default


@pytest.mark.parametrize("option, value, message", [
    ("--rates", "abc", "error: --rates: expected comma-separated numbers, "
                       "got 'abc'"),
    ("--rates", "0.5,x", "error: --rates: expected comma-separated "
                         "numbers, got '0.5,x'"),
    ("--rates", "nan", "error: packet_rate must be a finite number > 0.0, "
                       "got nan"),
    ("--schemes", "bogus", "error: unknown scheme 'bogus'"),
])
def test_sweep_bad_input_exits_with_message(option, value, message):
    """Bad sweep input ends in one error line, not a traceback."""
    argv = ["sweep", "--scale", "smoke", "--scenarios", "static",
            "--schemes", "rcast", "--rates", "0.5"]
    argv[argv.index(option) + 1] = value
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert str(excinfo.value.code).startswith(message)


@pytest.mark.parametrize("argv", [
    ["run", "--json-out"],
    ["run", "--trace-out"],
    ["run", "--telemetry-out"],
    ["run", "--sanitize-out"],
    ["sweep", "--scale", "smoke", "--json"],
    ["sweep", "--scale", "smoke", "--csv"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_missing_output_directory_fails_before_any_work(argv, tmp_path,
                                                        monkeypatch):
    """Each of these used to end in a FileNotFoundError traceback, for
    ``run --json-out`` only after the whole run."""
    import importlib

    import repro.network

    def no_work(*args, **kwargs):
        raise AssertionError("simulation work started")

    monkeypatch.setattr(repro.network, "build_network", no_work)
    # The package re-exports the function under the module's name.
    sweep_module = importlib.import_module("repro.experiments.sweep")
    monkeypatch.setattr(sweep_module, "sweep", no_work)
    missing = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [str(missing)])
    assert str(excinfo.value.code) == (
        f"error: cannot write {missing}: directory {missing.parent} does "
        "not exist")


def test_trace_rotate_must_be_positive(tmp_path):
    """``--trace-rotate 0`` used to raise ValueError from the trace sink."""
    trace_path = tmp_path / "trace.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--nodes", "5", "--connections", "1", "--sim-time", "1",
              "--trace-out", str(trace_path), "--trace-rotate", "0"])
    message = str(excinfo.value.code)
    assert message == (
        "error: --trace-rotate: rotate_bytes must be positive, got 0")
    assert not trace_path.exists()


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["fig42"])


def test_invalid_scale_rejected():
    with pytest.raises(SystemExit):
        main(["fig5", "--scale", "galactic"])


def test_ablation_requires_known_study():
    with pytest.raises(SystemExit):
        main(["ablation", "nonexistent"])


def test_sweep_command_with_export(tmp_path, capsys, monkeypatch):
    import dataclasses

    import repro.cli as cli
    from repro.experiments.scenarios import SMOKE_SCALE

    tiny = dataclasses.replace(SMOKE_SCALE, num_nodes=12, sim_time=8.0,
                               num_connections=2, repetitions=1)
    monkeypatch.setitem(cli._SCALES, "smoke", tiny)
    json_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--schemes", "rcast", "--rates", "0.5",
        "--scenarios", "static", "--scale", "smoke",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    assert code == 0
    assert json_path.exists() and csv_path.exists()
    out = capsys.readouterr().out
    assert "total energy" in out


def test_sweep_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["sweep", "--scenarios", "lunar", "--scale", "smoke"])


def test_sweep_command_parallel_workers(tmp_path, capsys, monkeypatch):
    import dataclasses
    import json

    import repro.cli as cli
    from repro.experiments.scenarios import SMOKE_SCALE

    tiny = dataclasses.replace(SMOKE_SCALE, num_nodes=12, sim_time=8.0,
                               num_connections=2, repetitions=2)
    monkeypatch.setitem(cli._SCALES, "smoke", tiny)
    json_path = tmp_path / "sweep.json"
    code = main([
        "sweep", "--schemes", "rcast", "--rates", "0.5",
        "--scenarios", "static", "--scale", "smoke",
        "--workers", "2", "--json-out", str(json_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "total energy" in captured.out
    assert "utilization" in captured.err
    data = json.loads(json_path.read_text())
    assert data["cells"][0]["repetitions"] == 2


def test_figure_command_workers_and_json_out(tmp_path, capsys, monkeypatch):
    import dataclasses
    import json

    import repro.cli as cli
    from repro.experiments.scenarios import SMOKE_SCALE

    tiny = dataclasses.replace(SMOKE_SCALE, num_nodes=12, sim_time=8.0,
                               num_connections=2, repetitions=1,
                               rates=(0.5,), low_rate=0.5, high_rate=0.5)
    monkeypatch.setitem(cli._SCALES, "smoke", tiny)
    json_path = tmp_path / "fig6.json"
    code = main(["fig6", "--scale", "smoke", "--workers", "2",
                 "--json-out", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "variance" in out
    # The series come first, then the figure's shape verdicts.
    assert out.index("Fig.6") < out.index("shape verdicts:")
    data = json.loads(json_path.read_text())
    assert data["scale_name"] == "smoke"
    assert "variance" in data
    assert [v["name"] for v in data["verdicts"]] == [
        "80211_flat[mobile]", "rcast_balance[mobile]",
        "80211_flat[static]", "rcast_balance[static]"]


def test_run_command_trace_out(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.jsonl"
    code = main([
        "run", "--scheme", "rcast", "--nodes", "10", "--sim-time", "5",
        "--connections", "2", "--static", "--seed", "3",
        "--trace-out", str(trace_path), "--trace-categories", "atim,psm",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    lines = trace_path.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"time", "category", "node", "event", "fields"}
        assert record["category"] in ("atim", "psm")


def test_run_command_json_out_with_timeline(tmp_path):
    import json

    json_path = tmp_path / "run.json"
    code = main([
        "run", "--scheme", "psm", "--nodes", "10", "--sim-time", "5",
        "--connections", "2", "--static", "--seed", "3",
        "--sample-interval", "1", "--json-out", str(json_path),
    ])
    assert code == 0
    data = json.loads(json_path.read_text())
    assert set(data) == {"metrics", "manifest", "timeline"}
    assert data["metrics"]["scheme"] == "psm"
    assert data["manifest"]["events_processed"] > 0
    assert data["manifest"]["wall_time"] > 0
    assert len(data["timeline"]["samples"]) == 5


def test_run_command_arena_flags():
    """--arena-w/-h override the paper's arena (constant-density scaling)."""
    from repro.cli import _build_parser, _config_from_args

    parser = _build_parser()
    config = _config_from_args(parser.parse_args([
        "run", "--nodes", "10", "--connections", "2",
        "--arena-w", "500", "--arena-h", "400"]))
    assert (config.arena_w, config.arena_h) == (500.0, 400.0)
    # Without the flags the paper's arena stays the default.
    config = _config_from_args(parser.parse_args(
        ["run", "--nodes", "10", "--connections", "2"]))
    assert (config.arena_w, config.arena_h) == (1500.0, 300.0)
    # And the override actually reaches a run.
    code = main([
        "run", "--scheme", "rcast", "--nodes", "10", "--sim-time", "5",
        "--connections", "2", "--static", "--seed", "3",
        "--arena-w", "500", "--arena-h", "400",
    ])
    assert code == 0


def test_profile_command(tmp_path, capsys):
    import json

    json_path = tmp_path / "profile.json"
    code = main([
        "profile", "--scheme", "rcast", "--nodes", "10", "--sim-time", "5",
        "--connections", "2", "--static", "--seed", "3",
        "--top", "5", "--json-out", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "profiled time" in out
    assert "layer" in out and "function" in out
    data = json.loads(json_path.read_text())
    assert set(data) == {"profiled_s", "layers", "functions"}
    assert len(data["functions"]) == 5
    for row in data["layers"]:
        assert set(row) == {"layer", "self_s", "share"}
    for row in data["functions"]:
        assert set(row) == {"name", "layer", "calls", "self_s"}


def test_profile_charges_the_always_on_fanout_to_mac(tmp_path):
    import json

    from repro.mac.base import _AlwaysOnFanout

    json_path = tmp_path / "p.json"
    top = 500
    assert main([
        "profile", "--scheme", "ieee80211", "--nodes", "10",
        "--sim-time", "5", "--connections", "2", "--static", "--seed", "3",
        "--top", str(top), "--json-out", str(json_path),
    ]) == 0
    data = json.loads(json_path.read_text())
    layers = {row["layer"]: row["self_s"] for row in data["layers"]}
    assert sum(layers.values()) == pytest.approx(data["profiled_s"],
                                                 rel=1e-9)
    assert {"sim", "phy", "mac", "routing"} <= set(layers)
    assert len(data["functions"]) <= top
    fanout = _AlwaysOnFanout.deliver.__code__
    name = f"mac/base.py:{fanout.co_firstlineno}({fanout.co_name})"
    assert {row["name"]: row["layer"]
            for row in data["functions"]}[name] == "mac"


def test_sweep_json_out_carries_replication_manifests(tmp_path, monkeypatch):
    import dataclasses
    import json

    import repro.cli as cli
    from repro.experiments.scenarios import SMOKE_SCALE

    tiny = dataclasses.replace(SMOKE_SCALE, num_nodes=12, sim_time=8.0,
                               num_connections=2, repetitions=2)
    monkeypatch.setitem(cli._SCALES, "smoke", tiny)
    json_path = tmp_path / "sweep.json"
    code = main([
        "sweep", "--schemes", "rcast", "--rates", "0.5",
        "--scenarios", "static", "--scale", "smoke",
        "--json-out", str(json_path),
    ])
    assert code == 0
    data = json.loads(json_path.read_text())
    manifests = data["replications"]
    assert len(manifests) == 2
    assert [m["rep"] for m in manifests] == [0, 1]
    for manifest in manifests:
        assert manifest["scheme"] == "rcast"
        assert manifest["events_processed"] > 0
        assert manifest["wall_time"] > 0
        assert manifest["events_per_sec"] > 0


def test_run_with_adaptive_policy(capsys):
    code = main([
        "run", "--scheme", "rcast", "--nodes", "15", "--rate", "0.5",
        "--sim-time", "8", "--connections", "2", "--static", "--seed", "3",
        "--overhearing-policy", "degree",
    ])
    assert code == 0
    assert "rcast:" in capsys.readouterr().out


def test_unknown_overhearing_policy_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "run", "--scheme", "rcast", "--nodes", "15",
            "--overhearing-policy", "bogus",
        ])
    assert excinfo.value.code == 2  # argparse usage error
    assert "--overhearing-policy" in capsys.readouterr().err


def test_sweep_rejects_unknown_overhearing_policy(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--schemes", "rcast", "--scale", "smoke",
            "--overhearing-policy", "oracle",
        ])
    assert excinfo.value.code == 2
    assert "--overhearing-policy" in capsys.readouterr().err


def test_adaptive_figure_accepts_no_policy_flag():
    # `adaptive` sweeps every policy itself; the per-figure flag is only
    # wired for fig7/lifetime/resilience.
    with pytest.raises(SystemExit):
        main(["adaptive", "--scale", "smoke",
              "--overhearing-policy", "degree"])
