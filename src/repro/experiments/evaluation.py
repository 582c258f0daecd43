"""The paper's evaluation as one grid and one verdict table.

:data:`EXPERIMENTS` lists every experiment the CLI runs: its runner, its
text rendering and its shape predicates (:mod:`repro.experiments.verdict`).
Table 1 and Figures 5-9 read cells of one (scheme x rate x scenario) grid;
:func:`paper_grid` simulates each distinct cell once (14 at smoke scale
where the six standalone runs take 59; 26 at bench where they take 95).
The benchmark suite checks every verdict against the per-scale record
:func:`write_record` writes (``benchmarks/verdicts.json``, smoke and
bench together).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments import (ablation, adaptive_study, aodv_study, fig5,
                               fig9, lifetime, resilience, sensitivity,
                               series, span_study, staleness_study,
                               sync_study, table1)
from repro.experiments.export import result_to_jsonable
from repro.experiments.scenarios import (BENCH_SCALE, SMOKE_SCALE,
                                         ExperimentScale)
from repro.experiments.sweep import SweepKey, SweepResult, run_cells
from repro.experiments.verdict import Verdict


@dataclass(frozen=True)
class Experiment:
    """One row of the table: how to run, show and judge an experiment."""

    #: ``run(scale, seed=, progress=, workers=[, overhearing_policy=])``
    run: Callable[..., Any]
    format: Callable[[Any], str]
    verdicts: Optional[Callable[[Any], List[Verdict]]] = None
    #: paper-grid experiments: the cells they read, and their result
    #: built from a grid holding those cells
    cells: Optional[Callable[[ExperimentScale], List[SweepKey]]] = None
    from_grid: Optional[Callable[[ExperimentScale, SweepResult], Any]] = None
    #: ``run`` takes the ``overhearing_policy`` of the rcast column
    policy_aware: bool = False
    to_json: Callable[[Any], Any] = result_to_jsonable


def _row(module: Any, policy_aware: bool = False) -> Experiment:
    return Experiment(module.run, module.format_result,
                      getattr(module, "verdicts", None),
                      getattr(module, "cells", None),
                      getattr(module, "from_grid", None), policy_aware,
                      getattr(module, "to_json", result_to_jsonable))


def _series(figure: str, policy_aware: bool = False) -> Experiment:
    return Experiment(partial(series.run, figure), series.format_result,
                      series.verdicts, series.cells,
                      partial(series.from_grid, figure), policy_aware,
                      series.to_json)


#: experiment name (the CLI command; ablations are ``ablation <study>``)
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": _row(table1),
    "fig5": _row(fig5),
    "fig6": _series("fig6"),
    "fig7": _series("fig7", policy_aware=True),
    "fig8": _series("fig8"),
    "fig9": _row(fig9),
    "ablation-factors": Experiment(ablation.run_factors, ablation.format_result,
                                   ablation.factors_verdicts),
    "ablation-tap": Experiment(ablation.run_tap, ablation.format_result,
                               ablation.tap_verdicts),
    "ablation-rreq": Experiment(ablation.run_rreq, ablation.format_result,
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


def paper_cells(scale: ExperimentScale) -> List[SweepKey]:
    """Every distinct cell Table 1 and Figures 5-9 read, in table order."""
    return list(dict.fromkeys(
        key for exp in EXPERIMENTS.values() if exp.cells is not None
        for key in exp.cells(scale)))


def paper_grid(scale: ExperimentScale,
               workers: Optional[int] = None) -> SweepResult:
    """Simulate :func:`paper_cells` once (seed 1)."""
    return run_cells(scale, paper_cells(scale), workers=workers)


def evaluate(name: str, scale: ExperimentScale,
             grid: Optional[SweepResult] = None,
             workers: Optional[int] = None) -> Tuple[Any, List[Verdict]]:
    """One judged experiment's result and verdicts, at seed 1.

    A paper-grid experiment is read off ``grid`` when one is given (it
    must come from :func:`paper_grid` at the same scale); every other
    experiment runs on its own.
    """
    exp = EXPERIMENTS[name]
    assert exp.verdicts is not None, f"{name} states no predicates"
    if grid is not None and exp.from_grid is not None:
        result = exp.from_grid(scale, grid)
    else:
        result = exp.run(scale, workers=workers)
    return result, exp.verdicts(result)


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
        grid = paper_grid(scale, workers=workers)
        record[scale.name] = {
            name: [v.to_dict() for v in evaluate(name, scale, grid,
                                                 workers=workers)[1]]
            for name in JUDGED
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


__all__ = ["EXPERIMENTS", "Experiment", "JUDGED", "RECORDED_SCALES",
           "evaluate", "paper_cells", "paper_grid", "write_record"]
