"""CLI fault-injection surface: --faults, resilience, and error paths."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments.scenarios import SMOKE_SCALE
from repro.faults.plan import FaultPlan, NodeCrash, PacketLoss

RUN_ARGS = ["run", "--scheme", "rcast", "--nodes", "10", "--sim-time", "5",
            "--connections", "2", "--static", "--seed", "3"]


def write_plan(tmp_path, plan: FaultPlan):
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(indent=2) + "\n")
    return str(path)


def test_run_with_faults_reports_counts(tmp_path, capsys):
    plan = FaultPlan((
        NodeCrash(node=1, at=1.0, recover_at=3.0),
        PacketLoss(rate=0.2),
    ))
    json_path = tmp_path / "run.json"
    code = main(RUN_ARGS + ["--faults", write_plan(tmp_path, plan),
                            "--json-out", str(json_path)])
    assert code == 0
    data = json.loads(json_path.read_text())
    counts = data["manifest"]["fault_counts"]
    assert counts == data["metrics"]["fault_counts"]
    assert counts["crashes"] == 1
    assert counts["recoveries"] == 1
    assert f"faults: {counts}" in capsys.readouterr().out


def test_run_without_faults_omits_counts(tmp_path):
    json_path = tmp_path / "run.json"
    code = main(RUN_ARGS + ["--json-out", str(json_path)])
    assert code == 0
    data = json.loads(json_path.read_text())
    assert "fault_counts" not in data["manifest"]
    assert "fault_counts" not in data["metrics"]


def test_faults_file_missing(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--faults", str(tmp_path / "missing.json")])
    assert "--faults" in str(excinfo.value.code)


def test_faults_file_malformed_json(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--faults", str(path)])
    assert "invalid fault-plan JSON" in str(excinfo.value.code)


def test_faults_file_bad_version(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"version": 9, "events": []}))
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--faults", str(path)])
    assert "version 9" in str(excinfo.value.code)


def test_faults_file_invalid_event(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "version": 1, "events": [{"kind": "node-crash", "node": 0,
                                  "at": -1.0}],
    }))
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--faults", str(path)])
    assert str(excinfo.value.code) == (
        "error: --faults: at must be a finite number >= 0.0, got -1.0")


def test_faults_plan_naming_missing_node_exits_with_error(tmp_path):
    """The config rejects the plan; that used to be a traceback."""
    plan = FaultPlan((NodeCrash(node=12, at=1.0),))
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--faults", write_plan(tmp_path, plan)])
    assert str(excinfo.value.code) == (
        "error: --faults: fault plan targets node 12 but the network has "
        "10 nodes")


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["resilienceX"])
    assert excinfo.value.code == 2  # argparse usage error


def test_unknown_trace_category_rejected_before_truncation(tmp_path):
    # The validation must fire before the sink opens (and truncates) the
    # output file, so a typo can't destroy a previous trace.
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("precious\n")
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--trace-out", str(trace_path),
                         "--trace-categories", "psm,bogus"])
    message = str(excinfo.value.code)
    assert "bogus" in message and "fault" in message
    assert trace_path.read_text() == "precious\n"


def test_resilience_command(tmp_path, capsys, monkeypatch):
    import repro.cli as cli
    import repro.experiments.resilience as resilience

    tiny = dataclasses.replace(SMOKE_SCALE, num_nodes=10, sim_time=6.0,
                               num_connections=1, repetitions=1,
                               rates=(0.5,), low_rate=0.5, high_rate=0.5)
    monkeypatch.setitem(cli._SCALES, "smoke", tiny)
    monkeypatch.setattr(resilience, "CRASH_FRACTIONS", (0.0, 0.3))
    monkeypatch.setattr(resilience, "LOSS_RATES", (0.0, 0.2))
    json_path = tmp_path / "resilience.json"
    code = main(["resilience", "--scale", "smoke",
                 "--json-out", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "resilience" in out
    assert "PDR degradation" in out
    data = json.loads(json_path.read_text())
    assert data["scale_name"] == "smoke"
    assert set(data["data"]) == {"crash", "loss"}
