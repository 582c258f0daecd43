"""Tests for the verdict table: one grid, named predicates, the record."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.evaluation import (
    EXPERIMENTS,
    JUDGED,
    RECORDED_SCALES,
    evaluate,
    paper_cells,
    paper_grid,
)
from repro.experiments.scenarios import BENCH_SCALE, SMOKE_SCALE
from repro.experiments.verdict import check, format_verdicts

ROOT = Path(__file__).resolve().parents[2]
RECORD = json.loads((ROOT / "benchmarks" / "verdicts.json").read_text())

#: EXPERIMENTS.md summary row -> experiment
SUMMARY_ROWS = {"Table 1": "table1", "Fig. 5": "fig5", "Fig. 6": "fig6",
                "Fig. 7": "fig7", "Fig. 8": "fig8", "Fig. 9": "fig9"}


def _paper_experiments():
    return {name: exp for name, exp in EXPERIMENTS.items()
            if exp.cells is not None}


@pytest.mark.parametrize("scale,distinct,standalone", [
    (SMOKE_SCALE, 14, 59),
    (BENCH_SCALE, 26, 95),
])
def test_paper_grid_simulates_each_cell_once(scale, distinct, standalone):
    assert set(_paper_experiments()) == set(SUMMARY_ROWS.values())
    assert len(paper_cells(scale)) == distinct
    assert sum(len(exp.cells(scale))
               for exp in _paper_experiments().values()) == standalone


def test_shared_grid_matches_standalone_runs():
    micro = dataclasses.replace(
        SMOKE_SCALE, num_nodes=12, sim_time=8.0, num_connections=2,
        repetitions=1, rates=(0.5, 1.0), low_rate=0.5, high_rate=1.0,
        name="micro")
    grid = paper_grid(micro)
    assert len(grid.cells) == 14
    for name, exp in _paper_experiments().items():
        shared, verdicts = evaluate(name, micro, grid)
        alone = exp.run(micro)
        assert exp.format(shared) == exp.format(alone), name
        assert verdicts == exp.verdicts(alone), name


@pytest.mark.parametrize("op,measured,bound,passed", [
    ("<", 1.0, 2.0, True), ("<", 2.0, 2.0, False),
    ("<=", 2.0, 2.0, True), (">", 2.0, 2.0, False),
    (">=", 2.0, 2.0, True), ("==", 3, 3, True), ("==", 3, 4, False),
])
def test_check_holds_measured_to_bound(op, measured, bound, passed):
    verdict = check("name", "a claim", measured, op, bound)
    assert verdict.passed is passed
    assert verdict.to_dict() == {
        "name": "name", "claim": "a claim", "measured": float(measured),
        "op": op, "bound": float(bound), "passed": passed}
    mark = "PASS" if passed else "FAIL"
    assert f"[{mark}] name:" in format_verdicts([verdict])


def test_record_holds_exactly_the_recorded_scales():
    assert sorted(RECORD) == sorted(s.name for s in RECORDED_SCALES)


@pytest.mark.parametrize("scale", [s.name for s in RECORDED_SCALES])
def test_record_covers_every_judged_experiment(scale):
    table = RECORD[scale]
    assert sorted(table) == sorted(JUDGED)
    for name, verdicts in table.items():
        names = [v["name"] for v in verdicts]
        assert names and len(names) == len(set(names)), name


def _summary_rows():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    summary = text.split("## Summary", 1)[1].split("\n## ", 1)[0]
    for line in summary.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in SUMMARY_ROWS:
            yield cells[0], cells[-1]


def test_status_column_matches_the_records():
    """A row reads ``reproduced`` exactly when all its verdicts pass at
    every recorded scale."""
    rows = dict(_summary_rows())
    assert set(rows) == set(SUMMARY_ROWS)
    for label, status in rows.items():
        name = SUMMARY_ROWS[label]
        passing = all(v["passed"] for scale in RECORDED_SCALES
                      for v in RECORD[scale.name][name])
        assert status.startswith("reproduced") == passing, (label, status)
