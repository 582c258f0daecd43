"""The paper's evaluation as one job table and one verdict table.

:data:`EXPERIMENTS` lists every experiment the CLI runs.  Each row is
data: the simulations it needs (``jobs``), a fold from their results to
the row's result, its text rendering and its shape predicates
(:mod:`repro.experiments.verdict`).  :func:`run_experiments` merges the
jobs of any set of rows into one table, runs each distinct job once
(:func:`~repro.experiments.parallel.run_jobs`) and folds each row; Table
1 and Figures 5-9 read cells of one (scheme x rate x scenario) grid, and
the extension studies reuse many of its cells: the judged rows run 47
distinct jobs at smoke scale where one shared grid plus each other row
alone ran 56, and 112 at bench where those ran 130.  The benchmark suite checks every verdict against the per-scale
record :func:`write_record` writes (``benchmarks/verdicts.json``, smoke
and bench together).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.experiments import (ablation, adaptive_study, aodv_study, fig5,
                               fig9, lifetime, resilience, sensitivity,
                               series, span_study, staleness_study,
                               sync_study, table1)
from repro.experiments.export import result_to_jsonable
from repro.experiments.parallel import Job, ProgressCallback, run_jobs
from repro.experiments.scenarios import (BENCH_SCALE, SMOKE_SCALE,
                                         ExperimentScale)
from repro.experiments.verdict import Verdict

#: a row's job key: ``(cell, rep)``
JobKey = Tuple[Hashable, int]


@dataclass(frozen=True)
class Experiment:
    """One row of the table: the jobs an experiment needs, the fold from
    their results to its result, and how to show and judge that result."""

    #: ``jobs(scale, seed[, overhearing_policy]) -> {(cell, rep): job}``
    jobs: Callable[..., Dict[Any, Job]]
    #: ``fold(scale, results)``, ``results`` keyed as ``jobs`` keyed them
    fold: Callable[[ExperimentScale, Mapping[Any, Any]], Any]
    format: Callable[[Any], str]
    verdicts: Optional[Callable[[Any], List[Verdict]]] = None
    #: ``jobs`` takes the ``overhearing_policy`` of the rcast column
    policy_aware: bool = False
    to_json: Callable[[Any], Any] = result_to_jsonable


def _row(module: Any, policy_aware: bool = False) -> Experiment:
    return Experiment(module.jobs, module.fold, module.format_result,
                      getattr(module, "verdicts", None), policy_aware,
                      getattr(module, "to_json", result_to_jsonable))


def _series(figure: str, policy_aware: bool = False) -> Experiment:
    return Experiment(series.jobs, partial(series.fold, figure),
                      series.format_result, series.verdicts, policy_aware,
                      series.to_json)


def _ablation(study: str, jobs: Callable[..., Dict[Any, Job]],
              verdicts: Callable[[Any], List[Verdict]]) -> Experiment:
    return Experiment(jobs, partial(ablation.fold, study),
                      ablation.format_result, verdicts)


#: experiment name (the CLI command; ablations are ``ablation <study>``)
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": _row(table1),
    "fig5": _row(fig5),
    "fig6": _series("fig6"),
    "fig7": _series("fig7", policy_aware=True),
    "fig8": _series("fig8"),
    "fig9": _row(fig9),
    "ablation-factors": _ablation("decision-factors", ablation.factors_jobs,
                                  ablation.factors_verdicts),
    "ablation-tap": _ablation("opportunistic-tap", ablation.tap_jobs,
                              ablation.tap_verdicts),
    "ablation-rreq": _ablation("randomized-rreq", ablation.rreq_jobs,
                               ablation.rreq_verdicts),
    "lifetime": _row(lifetime, policy_aware=True),
    "sensitivity": _row(sensitivity),
    "aodv": _row(aodv_study),
    "span": _row(span_study),
    "sync": _row(sync_study),
    "staleness": _row(staleness_study),
    "resilience": _row(resilience, policy_aware=True),
    "adaptive": _row(adaptive_study),
}

#: experiments that state shape predicates, in table order
JUDGED = tuple(name for name, exp in EXPERIMENTS.items()
               if exp.verdicts is not None)


def job_table(names: Sequence[str], scale: ExperimentScale, seed: int = 1,
              overhearing_policy: str = "fixed"
              ) -> Dict[Tuple[Tuple[str, Hashable], int], Job]:
    """The jobs of every named row, keyed ``((name, cell), rep)``.

    ``overhearing_policy`` reaches the policy-aware rows only.
    """
    table: Dict[Tuple[Tuple[str, Hashable], int], Job] = {}
    for name in names:
        exp = EXPERIMENTS[name]
        extra = ({"overhearing_policy": overhearing_policy}
                 if exp.policy_aware else {})
        for (cell, rep), job in exp.jobs(scale, seed, **extra).items():
            table[((name, cell), rep)] = job
    return table


def run_experiments(names: Sequence[str], scale: ExperimentScale,
                    seed: int = 1, workers: Optional[int] = None,
                    on_event: Optional[ProgressCallback] = None,
                    overhearing_policy: str = "fixed") -> Dict[str, Any]:
    """Each named row's result, from one :func:`job_table`.

    Every distinct job runs once, however many rows declare it; each row
    folds the results of its own keys.  ``workers`` and ``on_event`` go
    to :func:`~repro.experiments.parallel.run_jobs`.
    """
    table = job_table(names, scale, seed, overhearing_policy)
    results = run_jobs(table, workers, on_event)
    rows: Dict[str, Dict[JobKey, Any]] = {name: {} for name in names}
    for ((name, cell), rep), value in results.items():
        rows[name][(cell, rep)] = value
    return {name: EXPERIMENTS[name].fold(scale, rows[name]) for name in names}


def judge(scale: ExperimentScale, workers: Optional[int] = None
          ) -> Dict[str, Tuple[Any, List[Verdict]]]:
    """Every judged experiment's result and verdicts, at seed 1."""
    results = run_experiments(JUDGED, scale, workers=workers)
    out: Dict[str, Tuple[Any, List[Verdict]]] = {}
    for name, result in results.items():
        verdicts = EXPERIMENTS[name].verdicts
        assert verdicts is not None, f"{name} states no predicates"
        out[name] = (result, verdicts(result))
    return out


#: the scales :func:`write_record` records, always together
RECORDED_SCALES = (SMOKE_SCALE, BENCH_SCALE)


def write_record(path: Union[str, Path],
                 workers: Optional[int] = None) -> Path:
    """Record every judged experiment's verdicts at smoke and bench scale.

    Both scales are recorded in one call, so neither record can be
    refreshed against a different simulator than the other.  The file
    maps scale name -> experiment -> verdict dicts.
    """
    record: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for scale in RECORDED_SCALES:
        record[scale.name] = {
            name: [v.to_dict() for v in verdicts]
            for name, (_, verdicts) in judge(scale, workers).items()
        }
    # One verdict per line, so a changed verdict is a one-line diff.
    blocks = [
        f" {json.dumps(scale_name)}: {{\n" + ",\n".join(
            f"  {json.dumps(name)}: [\n"
            + ",\n".join(f"   {json.dumps(v)}" for v in verdicts) + "\n  ]"
            for name, verdicts in sorted(table.items())) + "\n }"
        for scale_name, table in sorted(record.items())
    ]
    path = Path(path)
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return path


__all__ = ["EXPERIMENTS", "Experiment", "JUDGED", "RECORDED_SCALES", "judge",
           "job_table", "run_experiments", "write_record"]
