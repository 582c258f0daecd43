"""Reproduction harness for the paper's evaluation (Section 4).

Each experiment module regenerates one table or figure:

========== ==========================================================
module     paper content
========== ==========================================================
`table1`   scheme-behaviour comparison (Table 1), backed by measurement
`fig5`     per-node energy consumption, sorted (Figure 5, 4 panels)
`fig6`     variance of per-node energy vs packet rate (Figure 6)
`fig7`     total energy, PDR, energy-per-bit vs rate (Figure 7)
`fig8`     average delay and normalized routing overhead (Figure 8)
`fig9`     role number vs energy scatter (Figure 9)
`ablation` extension studies: decision factors, opportunistic tap,
           randomized RREQ reception
`adaptive_study` adaptive P_R policies vs fixed 1/n at 100/1,000 nodes
           (extension)
`lifetime` network lifetime under finite batteries (extension)
`sensitivity` PSM beacon/ATIM timing sensitivity (extension)
`aodv_study`  footnote 1: DSR vs AODV under PSM (extension)
`resilience`  scheme degradation under injected faults (extension)
`export`   JSON/CSV serialization of sweep results
========== ==========================================================

Every module exposes ``run(scale)`` returning a result object and a
``format_result`` helper producing the text tables the benchmarks print.
``scale`` is an :class:`~repro.experiments.scenarios.ExperimentScale`:
``PAPER_SCALE`` matches the paper exactly (100 nodes, 1125 s, 10
repetitions — hours of CPU), ``BENCH_SCALE`` preserves the shape at
laptop-friendly cost, and ``SMOKE_SCALE`` exists for tests.
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
