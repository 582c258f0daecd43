"""Every experiment's shape verdicts against the committed record.

One case per judged experiment of
:data:`repro.experiments.evaluation.EXPERIMENTS`.  Table 1 and Figures 5-9
are read off one grid, simulated once per session; every other experiment
runs on its own.  A case fails when any verdict — its name, its outcome,
its measured value or its bound — differs from the record of the selected
scale in ``verdicts.json``; a scale with no record (``paper``) expects
every verdict to pass.  A deliberate result change re-records smoke and
bench together with ``write_record("benchmarks/verdicts.json")``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.evaluation import (
    EXPERIMENTS,
    JUDGED,
    evaluate,
    paper_grid,
)
from repro.experiments.verdict import format_verdicts

RECORD = json.loads(Path(__file__).with_name("verdicts.json").read_text())


@pytest.fixture(scope="session")
def grid(scale, workers):
    return paper_grid(scale, workers=workers)


@pytest.mark.parametrize("name", JUDGED)
def test_verdicts(name, scale, workers, request):
    experiment = EXPERIMENTS[name]
    grid = request.getfixturevalue("grid") if experiment.cells else None
    result, verdicts = evaluate(name, scale, grid, workers=workers)
    print()
    print(experiment.format(result))
    print(format_verdicts(verdicts))
    got = [v.to_dict() for v in verdicts]
    expected = RECORD.get(scale.name, {}).get(name)
    if expected is None:
        assert all(v["passed"] for v in got), format_verdicts(verdicts)
        return
    assert ([(v["name"], v["passed"]) for v in got]
            == [(v["name"], v["passed"]) for v in expected])
    numbers = [x for v in got for x in (v["measured"], v["bound"])]
    recorded = [x for v in expected for x in (v["measured"], v["bound"])]
    assert numbers == pytest.approx(recorded, rel=1e-6, abs=1e-9)
