"""Reproduction harness for the paper's evaluation (Section 4).

Every experiment is a row of one table,
:data:`repro.experiments.evaluation.EXPERIMENTS`:

================ ======================================================
module           paper content
================ ======================================================
`table1`         scheme-behaviour comparison (Table 1), measured
`fig5`           per-node energy consumption, sorted (Figure 5)
`series`         rate sweeps, one row per figure: energy variance (6);
                 energy, PDR, energy-per-bit (7); delay, overhead (8)
`fig9`           role number vs energy scatter (Figure 9)
`ablation`       extensions: decision factors, tap, randomized RREQ
`lifetime`, `sensitivity`, `aodv_study`, `span_study`, `sync_study`,
`staleness_study`, `resilience`, `adaptive_study`: extension studies
`verdict`        a shape claim held to its bound
`export`         JSON/CSV serialization of results
================ ======================================================

Each module's ``run(scale, seed, progress, workers)`` returns a result
object, ``format_result`` renders its text tables and ``verdicts`` its
shape claims.  Table 1 and Figures 5-9 also expose ``cells(scale)`` and
``from_grid(scale, grid)``: they read one (scheme x rate x scenario)
grid, which :func:`~repro.experiments.evaluation.paper_grid` simulates
once.  ``PAPER_SCALE`` matches the paper exactly (hours of CPU),
``BENCH_SCALE`` preserves the shape at laptop-friendly cost, and
``SMOKE_SCALE`` exists for tests.
"""

from repro.experiments.parallel import (
    ParallelRunner,
    ProgressEvent,
    RunnerStats,
    parallel_map,
    resolve_workers,
    run_grid,
)
from repro.experiments.runner import (
    AggregateMetrics,
    aggregate,
)
from repro.experiments.scenarios import (
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    make_config,
)
from repro.experiments.sweep import sweep

__all__ = [
    "AggregateMetrics",
    "BENCH_SCALE",
    "ExperimentScale",
    "PAPER_SCALE",
    "ParallelRunner",
    "ProgressEvent",
    "RunnerStats",
    "SMOKE_SCALE",
    "aggregate",
    "make_config",
    "parallel_map",
    "resolve_workers",
    "run_grid",
    "sweep",
]
