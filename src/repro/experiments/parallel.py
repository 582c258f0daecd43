"""Jobs, and the one loop that runs them serially or across processes.

The paper's evaluation is 10 repetitions per cell over a
(scheme x rate x scenario) grid; every replication is independent by
construction (deterministic derived seeds, independent named RNG streams
per :mod:`repro.sim.rng`), which makes the whole campaign embarrassingly
parallel.  Every simulation an experiment needs is a :data:`Job`: a
module-level function of one
:class:`~repro.network.SimulationConfig` and that config.  Results are
keyed by the job's ``(cell, rep)`` key, never by completion order, so the
same seed produces bit-identical results regardless of worker count.

Layering:

* :func:`replications` — the jobs of a ``{cell: config}`` grid:
  ``repetitions`` derived-seed :func:`~repro.network.run_simulation` runs
  per cell;
* :func:`run_jobs` — run each distinct ``(fn, config)`` once and return
  every key's result; ``workers`` follows :func:`resolve_workers`, and
  with one worker the jobs run in-process in submission order;
* :func:`run_grid` — :func:`run_jobs` over :func:`replications`,
  returning per-cell rep-ordered :class:`~repro.metrics.collector.RunMetrics`
  lists;
* :class:`ProgressEvent` / :class:`RunnerStats` — structured progress
  (per-cell start/finish, elapsed wall-clock, worker utilization).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
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
#: A job's key: ``(cell, rep)``.  The cell groups jobs in the progress
#: stream; ``rep`` numbers the jobs of one cell.
KeyT = TypeVar("KeyT", bound=Tuple[Hashable, int])

#: A unit of work: a module-level (picklable) function and the one config
#: it is called with.
Job = Tuple[Callable[[SimulationConfig], Any], SimulationConfig]


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
    """The exact config replication ``rep`` runs: base config + derived seed."""
    return replace(config, seed=replication_seed(config.seed, rep))


def replications(configs: Mapping[CellT, SimulationConfig],
                 repetitions: int) -> Dict[Tuple[CellT, int], Job]:
    """``repetitions`` derived-seed runs of every cell, keyed ``(cell, rep)``.

    Cell-major, repetitions ascending: the order :func:`run_jobs` submits
    them in and the order a fold reads them back.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return {(cell, rep): (run_simulation, replication_config(config, rep))
            for cell, config in configs.items() for rep in range(repetitions)}


@dataclass(frozen=True)
class RunnerStats:
    """Wall-clock accounting of one job-table execution."""

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
    """Structured progress notification from a job-table execution.

    ``kind`` is one of:

    * ``"cell-start"`` — the first job of ``cell`` was dispatched
      (serial: is about to run; pooled: was submitted);
    * ``"rep-finish"`` — one job completed; for a replication
      ``manifest`` carries its provenance (seed, config hash, wall time,
      events processed);
    * ``"cell-finish"`` — the last job of ``cell`` completed;
    * ``"grid-finish"`` — every job completed; ``stats`` is populated.
    """

    kind: str
    cell: Hashable = None
    completed_items: int = 0
    total_items: int = 0
    elapsed: float = 0.0
    stats: Optional[RunnerStats] = None
    manifest: Optional[RunManifest] = None


ProgressCallback = Callable[[ProgressEvent], None]


def _timed(fn: Callable[[SimulationConfig], Any],
           config: SimulationConfig) -> Tuple[Any, float]:
    """Worker entry point: one job's result and its wall time."""
    started = time.perf_counter()
    value = fn(config)
    return value, time.perf_counter() - started


def _completions(jobs: Sequence[Job], size: int,
                 on_start: Callable[[int], None]
                 ) -> Iterator[Tuple[int, Any, float]]:
    """Yield ``(index, result, wall_time)`` for every job as it finishes.

    ``size`` 1 runs the jobs in-process in submission order; a larger
    ``size`` runs them over a pool of that many processes.
    ``on_start(index)`` is called as each job is dispatched.
    """
    pool = ProcessPoolExecutor(max_workers=size) if size > 1 else None
    with pool if pool is not None else nullcontext():
        futures: Dict["Future[Tuple[Any, float]]", int] = {}
        for index, (fn, config) in enumerate(jobs):
            on_start(index)
            if pool is None:
                yield (index, *_timed(fn, config))
            else:
                futures[pool.submit(_timed, fn, config)] = index
        for future in as_completed(futures):
            yield (futures[future], *future.result())


def run_jobs(jobs: Mapping[KeyT, Job], workers: Optional[int] = None,
             on_event: Optional[ProgressCallback] = None) -> Dict[KeyT, Any]:
    """Run each distinct ``(fn, config)`` of ``jobs`` once; every key's result.

    Keys whose jobs share a function and a config hash
    (:func:`~repro.obs.manifest.config_hash`) share one run.  ``workers``
    follows :func:`resolve_workers` (``None`` -> 1, ``0`` -> all cores),
    and the pool is never larger than the number of distinct jobs: fork
    starts every worker at the first submit, needed or not.  Results do
    not depend on ``workers``.  ``on_event`` gets the
    :class:`ProgressEvent` stream, each distinct job reported under its
    first key.
    """
    keys_of: Dict[Tuple[Callable[..., Any], str], List[KeyT]] = {}
    for key, (fn, config) in jobs.items():
        keys_of.setdefault((fn, config_hash(config)), []).append(key)
    digests = [digest for _, digest in keys_of]
    groups = list(keys_of.values())
    firsts = [keys[0] for keys in groups]
    work = [jobs[key] for key in firsts]
    total = len(work)
    size = max(1, min(resolve_workers(workers), total))
    remaining: Dict[Hashable, int] = {}
    for cell, _ in firsts:
        remaining[cell] = remaining.get(cell, 0) + 1
    started = time.perf_counter()
    busy = 0.0
    completed = 0
    seen: Set[Hashable] = set()

    def emit(kind: str, cell: Hashable, stats: Optional[RunnerStats] = None,
             manifest: Optional[RunManifest] = None) -> None:
        if on_event is not None:
            on_event(ProgressEvent(
                kind=kind, cell=cell, completed_items=completed,
                total_items=total, elapsed=time.perf_counter() - started,
                stats=stats, manifest=manifest))

    def on_start(index: int) -> None:
        cell = firsts[index][0]
        if cell not in seen:
            seen.add(cell)
            emit("cell-start", cell)

    results: Dict[KeyT, Any] = {}
    for index, value, wall_time in _completions(work, size, on_start):
        busy += wall_time
        completed += 1
        for key in groups[index]:
            results[key] = value
        cell, rep = firsts[index]
        manifest: Optional[RunManifest] = None
        if isinstance(value, RunMetrics):
            config = work[index][1]
            manifest = RunManifest(
                scheme=config.scheme, seed=config.seed,
                config_hash=digests[index], wall_time=wall_time,
                events_processed=value.events_processed, cell=str(cell),
                rep=rep, fault_counts=value.fault_counts or None)
        emit("rep-finish", cell, manifest=manifest)
        remaining[cell] -= 1
        if remaining[cell] == 0:
            emit("cell-finish", cell)
    emit("grid-finish", None, stats=RunnerStats(
        workers=size, items=total, elapsed=time.perf_counter() - started,
        busy=busy))
    return {key: results[key] for key in jobs}


def run_grid(
    configs: Mapping[CellT, SimulationConfig],
    repetitions: int,
    workers: Optional[int] = None,
    on_event: Optional[ProgressCallback] = None,
) -> Dict[CellT, List[RunMetrics]]:
    """Run a ``{cell: config}`` grid, ``repetitions`` replications per cell.

    Returns ``{cell: [RunMetrics, ...]}`` with the inner list in
    repetition order (index ``rep`` ran with seed
    ``replication_seed(config.seed, rep)``), independent of worker count.
    """
    results = run_jobs(replications(configs, repetitions), workers, on_event)
    return {cell: [results[(cell, rep)] for rep in range(repetitions)]
            for cell in configs}


__all__ = [
    "Job",
    "ProgressEvent",
    "RunnerStats",
    "replication_config",
    "replications",
    "resolve_workers",
    "run_grid",
    "run_jobs",
]
