"""Tests for the evaluation table: one job table, named predicates, the
record."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.evaluation import (
    EXPERIMENTS,
    JUDGED,
    RECORDED_SCALES,
    job_table,
    run_experiments,
)
from repro.experiments.scenarios import BENCH_SCALE, SMOKE_SCALE
from repro.experiments.verdict import check, format_verdicts
from repro.obs.manifest import config_hash

ROOT = Path(__file__).resolve().parents[2]
RECORD = json.loads((ROOT / "benchmarks" / "verdicts.json").read_text())

#: EXPERIMENTS.md summary row -> experiment
SUMMARY_ROWS = {"Table 1": "table1", "Fig. 5": "fig5", "Fig. 6": "fig6",
                "Fig. 7": "fig7", "Fig. 8": "fig8", "Fig. 9": "fig9"}


def _distinct(table):
    return {(fn, config_hash(config)) for fn, config in table.values()}


def _declared(names, scale):
    return sum(len(job_table([name], scale)) for name in names)


@pytest.mark.parametrize("scale,distinct,standalone", [
    (SMOKE_SCALE, 14, 59),
    (BENCH_SCALE, 26, 95),
])
def test_paper_grid_simulates_each_cell_once(scale, distinct, standalone):
    """Table 1 and Figs. 5-9 read ``distinct`` cells of one grid, where
    the six rows declare ``standalone`` (counting only, no simulation)."""
    paper = list(SUMMARY_ROWS.values())
    assert len(_distinct(job_table(paper, scale))) == (
        distinct * scale.repetitions)
    assert _declared(paper, scale) == standalone * scale.repetitions


@pytest.mark.parametrize("scale,distinct,separate", [
    (SMOKE_SCALE, 47, 56),
    (BENCH_SCALE, 112, 130),
])
def test_judged_rows_share_one_job_table(scale, distinct, separate):
    """Merging every judged row's jobs runs ``distinct`` simulations,
    where one shared paper grid plus each other row run alone takes
    ``separate`` (counting only, no simulation)."""
    paper = list(SUMMARY_ROWS.values())
    others = [name for name in JUDGED if name not in paper]
    assert len(_distinct(job_table(JUDGED, scale))) == distinct
    assert (len(_distinct(job_table(paper, scale)))
            + _declared(others, scale)) == separate


def test_shared_grid_matches_standalone_runs():
    """Every row read off the merged job table equals the row run alone."""
    micro = dataclasses.replace(
        SMOKE_SCALE, num_nodes=12, sim_time=8.0, num_connections=2,
        repetitions=1, rates=(0.5, 1.0), low_rate=0.5, high_rate=1.0,
        # adaptive's node axis is the scale's own count only at smoke
        name="smoke")
    names = list(EXPERIMENTS)
    table = job_table(names, micro)
    assert len(_distinct(table)) < len(table)
    shared = run_experiments(names, micro)
    for name, exp in EXPERIMENTS.items():
        alone = run_experiments([name], micro)[name]
        assert exp.format(shared[name]) == exp.format(alone), name
        assert exp.to_json(shared[name]) == exp.to_json(alone), name
        if exp.verdicts is not None:
            assert exp.verdicts(shared[name]) == exp.verdicts(alone), name


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
