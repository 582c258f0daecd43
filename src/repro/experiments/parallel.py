"""Parallel execution of replication grids across worker processes.

The paper's evaluation is 10 repetitions per cell over a
(scheme x rate x scenario) grid; every replication is independent by
construction (deterministic derived seeds, independent named RNG streams
per :mod:`repro.sim.rng`), which makes the whole campaign embarrassingly
parallel.  This module shards (cell x repetition) work items across a
process pool and reassembles results **in deterministic order** — results
are keyed by ``(cell, rep)``, never by completion order, so the same seed
produces bit-identical :class:`~repro.experiments.runner.AggregateMetrics`
regardless of worker count.

Layering:

* :class:`ParallelRunner` — the pool itself: ``max_workers`` (default
  ``os.cpu_count()``), ``max_workers=1`` falls back to the exact serial
  path (no pool, submission-order execution);
* :func:`run_grid` — run every cell of a ``{cell: config}`` mapping for
  ``repetitions`` derived-seed replications, returning per-cell
  rep-ordered :class:`~repro.metrics.collector.RunMetrics` lists;
* :func:`parallel_map` — order-preserving process-pool map for study
  modules whose unit of work is not a plain replication;
* :class:`ProgressEvent` / :class:`RunnerStats` — structured progress
  (per-cell start/finish, elapsed wall-clock, worker utilization).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.metrics.collector import RunMetrics
from repro.network import SimulationConfig, run_simulation
from repro.obs.manifest import RunManifest, config_hash
from repro.experiments.scenarios import replication_seed

#: Grid cell key.  Generic (rather than plain ``Hashable``) so callers keep
#: their concrete key type — ``Mapping`` is invariant in its key parameter.
CellT = TypeVar("CellT", bound=Hashable)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob: ``None`` -> 1 (serial), 0 -> all cores.

    Experiment entry points default to ``workers=None`` so existing callers
    keep the serial behaviour; ``workers=0`` means "use every core"
    (``os.cpu_count()``), matching the CLI's ``--workers 0``.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def replication_config(config: SimulationConfig, rep: int) -> SimulationConfig:
    """The exact config replication ``rep`` runs: base config + derived seed.

    Both the serial path and the worker processes go through this
    function, so the per-rep seeds are identical no matter where a
    replication executes.
    """
    return replace(config, seed=replication_seed(config.seed, rep))


@dataclass(frozen=True)
class WorkItem:
    """One (cell, repetition) unit of a replication grid."""

    cell: Hashable
    rep: int
    config: SimulationConfig


@dataclass(frozen=True)
class RunnerStats:
    """Wall-clock accounting of one grid execution."""

    workers: int
    items: int
    elapsed: float      # wall-clock seconds, submission to last result
    busy: float         # summed per-item execution time across workers

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity kept busy (1.0 = perfect scaling)."""
        capacity = self.elapsed * self.workers
        if capacity <= 0.0:
            return 0.0
        return self.busy / capacity


@dataclass(frozen=True)
class ProgressEvent:
    """Structured progress notification from a grid execution.

    ``kind`` is one of:

    * ``"cell-start"`` — the first replication of ``cell`` was dispatched
      (serial mode: is about to run; pool mode: was submitted);
    * ``"rep-finish"`` — one replication completed; ``manifest`` carries
      its provenance (seed, config hash, wall time, events processed);
    * ``"cell-finish"`` — the last replication of ``cell`` completed;
    * ``"grid-finish"`` — every item completed; ``stats`` is populated.
    """

    kind: str
    cell: Hashable = None
    completed_items: int = 0
    total_items: int = 0
    elapsed: float = 0.0
    stats: Optional[RunnerStats] = None
    manifest: Optional[RunManifest] = None


ProgressCallback = Callable[[ProgressEvent], None]


def _run_work_item(
    item: WorkItem,
) -> Tuple[Hashable, int, RunMetrics, RunManifest]:
    """Worker entry point: run one replication, report its manifest."""
    started = time.perf_counter()
    config = replication_config(item.config, item.rep)
    metrics = run_simulation(config)
    manifest = RunManifest(
        scheme=config.scheme,
        seed=config.seed,
        config_hash=config_hash(config),
        wall_time=time.perf_counter() - started,
        events_processed=metrics.events_processed,
        cell=str(item.cell),
        rep=item.rep,
        fault_counts=metrics.fault_counts or None,
    )
    return item.cell, item.rep, metrics, manifest


def _call_indexed(args: Tuple[Callable[[Any], Any], int, Any]) -> Tuple[int, Any]:
    """Worker entry point for :func:`parallel_map` (preserves input index)."""
    fn, index, item = args
    return index, fn(item)


class ParallelRunner:
    """Process-pool executor for replication grids.

    ``max_workers=None`` uses every core (``os.cpu_count()``);
    ``max_workers=1`` executes items serially in submission order with no
    pool — the exact pre-parallel code path.  After each :meth:`run_grid`
    the wall-clock/utilization accounting is available as ``last_stats``.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 on_event: Optional[ProgressCallback] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.on_event = on_event
        self.last_stats: Optional[RunnerStats] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_grid(self, configs: Mapping[CellT, SimulationConfig],
                 repetitions: int) -> Dict[CellT, List[RunMetrics]]:
        """Run ``repetitions`` derived-seed replications of every cell.

        Returns ``{cell: [RunMetrics, ...]}`` with the inner list in
        repetition order (index ``rep`` ran with seed
        ``replication_seed(config.seed, rep)``), independent of the order
        in which workers finished.
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        items = [
            WorkItem(cell, rep, config)
            for cell, config in configs.items()
            for rep in range(repetitions)
        ]
        if self.max_workers == 1:
            results = self._execute_serial(items)
        else:
            results = self._execute_pool(items)
        return {
            cell: [results[(cell, rep)] for rep in range(repetitions)]
            for cell in configs
        }

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------

    def _execute_serial(
        self, items: Sequence[WorkItem]
    ) -> Dict[Tuple[Hashable, int], RunMetrics]:
        started = time.perf_counter()
        busy = 0.0
        remaining = _per_cell_counts(items)
        seen_cells: Set[Hashable] = set()
        results: Dict[Tuple[Hashable, int], RunMetrics] = {}
        for completed, item in enumerate(items):
            if item.cell not in seen_cells:
                seen_cells.add(item.cell)
                self._emit("cell-start", item.cell, completed, len(items),
                           started)
            cell, rep, metrics, manifest = _run_work_item(item)
            busy += manifest.wall_time
            results[(cell, rep)] = metrics
            remaining[cell] -= 1
            self._emit("rep-finish", cell, completed + 1, len(items),
                       started, manifest=manifest)
            if remaining[cell] == 0:
                self._emit("cell-finish", cell, completed + 1, len(items),
                           started)
        self._finish(started, busy, len(items))
        return results

    def _execute_pool(
        self, items: Sequence[WorkItem]
    ) -> Dict[Tuple[Hashable, int], RunMetrics]:
        started = time.perf_counter()
        busy = 0.0
        remaining = _per_cell_counts(items)
        results: Dict[Tuple[Hashable, int], RunMetrics] = {}
        completed = 0
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            pending: Set[
                "Future[Tuple[Hashable, int, RunMetrics, RunManifest]]"
            ] = set()
            seen_cells: Set[Hashable] = set()
            for item in items:
                if item.cell not in seen_cells:
                    seen_cells.add(item.cell)
                    self._emit("cell-start", item.cell, completed,
                               len(items), started)
                pending.add(pool.submit(_run_work_item, item))
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    cell, rep, metrics, manifest = future.result()
                    busy += manifest.wall_time
                    completed += 1
                    results[(cell, rep)] = metrics
                    remaining[cell] -= 1
                    self._emit("rep-finish", cell, completed, len(items),
                               started, manifest=manifest)
                    if remaining[cell] == 0:
                        self._emit("cell-finish", cell, completed,
                                   len(items), started)
        self._finish(started, busy, len(items))
        return results

    # ------------------------------------------------------------------
    # Progress plumbing
    # ------------------------------------------------------------------

    def _emit(self, kind: str, cell: Hashable, completed: int, total: int,
              started: float, stats: Optional[RunnerStats] = None,
              manifest: Optional[RunManifest] = None) -> None:
        if self.on_event is None:
            return
        self.on_event(ProgressEvent(
            kind=kind, cell=cell, completed_items=completed,
            total_items=total, elapsed=time.perf_counter() - started,
            stats=stats, manifest=manifest,
        ))

    def _finish(self, started: float, busy: float, items: int) -> None:
        self.last_stats = RunnerStats(
            workers=self.max_workers, items=items,
            elapsed=time.perf_counter() - started, busy=busy,
        )
        self._emit("grid-finish", None, items, items, started,
                   stats=self.last_stats)


def _per_cell_counts(items: Sequence[WorkItem]) -> Dict[Hashable, int]:
    counts: Dict[Hashable, int] = {}
    for item in items:
        counts[item.cell] = counts.get(item.cell, 0) + 1
    return counts


def run_grid(
    configs: Mapping[CellT, SimulationConfig],
    repetitions: int,
    workers: Optional[int] = None,
    on_event: Optional[ProgressCallback] = None,
) -> Dict[CellT, List[RunMetrics]]:
    """Run a ``{cell: config}`` grid, ``repetitions`` replications per cell.

    ``workers`` follows :func:`resolve_workers` semantics (``None`` -> 1,
    ``0`` -> all cores).  Output order is deterministic regardless of
    worker count.
    """
    runner = ParallelRunner(max_workers=resolve_workers(workers),
                            on_event=on_event)
    return runner.run_grid(configs, repetitions)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
) -> List[Any]:
    """Order-preserving map over ``items``, optionally across processes.

    ``fn`` must be a module-level (picklable) callable.  ``workers=None``
    or 1 runs serially in-process; results always come back in input order.
    """
    items = list(items)
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: List[Any] = [None] * len(items)
    with ProcessPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        for index, value in pool.map(
            _call_indexed, [(fn, i, item) for i, item in enumerate(items)]
        ):
            results[index] = value
    return results


__all__ = [
    "ParallelRunner",
    "ProgressEvent",
    "RunnerStats",
    "WorkItem",
    "parallel_map",
    "replication_config",
    "resolve_workers",
    "run_grid",
]
