"""Parameter sweeps: (scheme x rate x scenario) grids.

The paper's Table 1 and Figures 5-9 all read cells of one grid; each
declares its cells' replications with :func:`cell_jobs`.
:func:`run_cells` simulates a set of cells once and returns a
:class:`SweepResult`, and :func:`sweep` runs a full product of axes (the
``rcast-repro sweep`` command's grid).

With ``workers > 1`` the sweep shards every (cell x repetition) work item
across a process pool (:mod:`repro.experiments.parallel`) — not just the
replications of one cell — so a full-grid sweep approaches linear
multicore speedup.  Results are reassembled keyed by ``(cell, rep)``,
never by completion order: the same seed produces bit-identical
:class:`~repro.experiments.runner.AggregateMetrics` for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.experiments.parallel import (
    Job,
    ProgressCallback,
    ProgressEvent,
    replications,
    run_grid,
)
from repro.experiments.runner import AggregateMetrics, aggregate
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.network import SimulationConfig
from repro.obs.manifest import RunManifest

#: Result key: (scheme, rate, mobile?).
SweepKey = Tuple[str, float, bool]


@dataclass
class SweepResult:
    """Aggregated metrics over a (scheme x rate x scenario) grid."""

    scale_name: str
    schemes: Tuple[str, ...]
    rates: Tuple[float, ...]
    scenarios: Tuple[bool, ...]  # True = mobile, False = static
    cells: Dict[SweepKey, AggregateMetrics] = field(default_factory=dict)
    #: per-replication provenance records, sorted by (cell, rep).  Wall
    #: times are measurements, not simulation output: they vary run to run.
    manifests: List[RunManifest] = field(default_factory=list)

    def get(self, scheme: str, rate: float, mobile: bool) -> AggregateMetrics:
        """Aggregate for one grid cell."""
        return self.cells[(scheme, rate, mobile)]

    def series(self, scheme: str, mobile: bool,
               metric: Callable[[AggregateMetrics], float]) -> List[float]:
        """Extract ``metric`` across the rate axis for one scheme/scenario."""
        return [metric(self.cells[(scheme, r, mobile)]) for r in self.rates]


def _configs(scale: ExperimentScale, keys: Iterable[SweepKey], seed: int,
             overrides: Dict[str, Any]) -> Dict[SweepKey, SimulationConfig]:
    return {(scheme, rate, mobile): make_config(scale, scheme, rate, mobile,
                                                seed=seed, **overrides)
            for scheme, rate, mobile in keys}


def cell_jobs(scale: ExperimentScale, keys: Iterable[SweepKey],
              seed: int = 1, **config_overrides: Any
              ) -> Dict[Tuple[SweepKey, int], Job]:
    """The scale's replications of each ``(scheme, rate, mobile)`` cell."""
    return replications(_configs(scale, keys, seed, config_overrides),
                        scale.repetitions)


def run_cells(
    scale: ExperimentScale,
    keys: Iterable[SweepKey],
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    on_event: Optional[ProgressCallback] = None,
    **config_overrides: Any,
) -> SweepResult:
    """Simulate each distinct ``(scheme, rate, mobile)`` cell once.

    Each cell is aggregated over the scale's repetitions; the result's
    axes list the values the cells take, in first-seen order.
    ``workers=None`` (or 1) runs serially, ``workers=N`` shards the
    (cell x repetition) items over ``N`` processes (0 = all cores).
    ``progress`` gets one line per finished cell in cell order,
    ``on_event`` the :class:`~repro.experiments.parallel.ProgressEvent`
    stream; every replication's manifest lands on ``result.manifests``
    (sorted by cell/rep, independent of completion order).
    """
    cells = list(dict.fromkeys(keys))
    result = SweepResult(
        scale_name=scale.name,
        schemes=tuple(dict.fromkeys(key[0] for key in cells)),
        rates=tuple(dict.fromkeys(key[1] for key in cells)),
        scenarios=tuple(dict.fromkeys(key[2] for key in cells)),
    )
    configs = _configs(scale, cells, seed, config_overrides)
    manifests: List[RunManifest] = []

    def _collect(event: ProgressEvent) -> None:
        if event.kind == "rep-finish" and event.manifest is not None:
            manifests.append(event.manifest)
        if on_event is not None:
            on_event(event)

    runs = run_grid(configs, scale.repetitions, workers=workers,
                    on_event=_collect)
    result.manifests = sorted(
        manifests, key=lambda m: (m.cell or "", m.rep or 0)
    )
    for key in configs:
        agg = aggregate(runs[key])
        result.cells[key] = agg
        if progress is not None:
            scheme, rate, mobile = key
            label = "mobile" if mobile else "static"
            progress(f"[{label} rate={rate}] {agg.describe()}")
    return result


def sweep(
    scale: ExperimentScale,
    schemes: Sequence[str],
    rates: Optional[Sequence[float]] = None,
    scenarios: Sequence[bool] = (True, False),
    **kwargs: Any,
) -> SweepResult:
    """:func:`run_cells` over the (scheme x rate x scenario) product.

    The package's entry point for a rectangular grid, named by its axes
    as ``rcast-repro sweep`` takes them; ``rates`` defaults to the
    scale's rate axis.  ``kwargs`` (seed, progress, workers, on_event and
    config overrides) go to :func:`run_cells` unchanged.
    """
    rates = tuple(rates if rates is not None else scale.rates)
    keys = [(scheme, rate, mobile)
            for mobile in scenarios for rate in rates for scheme in schemes]
    return run_cells(scale, keys, **kwargs)


__all__ = ["SweepKey", "SweepResult", "cell_jobs", "run_cells", "sweep"]
