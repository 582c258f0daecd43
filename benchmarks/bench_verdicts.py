"""Every experiment's shape verdicts against the committed record.

One case per judged experiment of
:data:`repro.experiments.evaluation.EXPERIMENTS`.  The jobs of every
judged experiment form one table, each distinct simulation run once per
session; each case folds its own experiment's results.  A case fails
when any verdict — its name, its outcome, its measured value or its
bound — differs from the record of the selected scale in
``verdicts.json``; a scale with no record (``paper``) expects every
verdict to pass.  A deliberate result change re-records smoke and
bench together with ``write_record("benchmarks/verdicts.json")``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.evaluation import EXPERIMENTS, JUDGED, judge
from repro.experiments.verdict import format_verdicts

RECORD = json.loads(Path(__file__).with_name("verdicts.json").read_text())


@pytest.fixture(scope="session")
def judged(scale, workers):
    return judge(scale, workers)


@pytest.mark.parametrize("name", JUDGED)
def test_verdicts(name, scale, judged):
    experiment = EXPERIMENTS[name]
    result, verdicts = judged[name]
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
