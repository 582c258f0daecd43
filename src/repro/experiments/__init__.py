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

Each row declares ``jobs(scale, seed)``, the simulations it needs, and
``fold(scale, results)``, its result from theirs; ``format_result``
renders the result's text tables and ``verdicts`` its shape claims.
:func:`~repro.experiments.evaluation.run_experiments` runs the jobs of
any set of rows as one table, each distinct simulation once.
``PAPER_SCALE`` matches the paper exactly (hours of CPU),
``BENCH_SCALE`` preserves the shape at laptop-friendly cost, and
``SMOKE_SCALE`` exists for tests.
"""

from repro.experiments.parallel import (
    ProgressEvent,
    RunnerStats,
    resolve_workers,
    run_grid,
    run_jobs,
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
    "ProgressEvent",
    "RunnerStats",
    "SMOKE_SCALE",
    "aggregate",
    "make_config",
    "resolve_workers",
    "run_grid",
    "run_jobs",
    "sweep",
]
