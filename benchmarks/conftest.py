"""Benchmark configuration.

The suite checks the shape verdicts of every experiment (the paper's
Table 1 and Figures 5-9 plus the extension studies) against the record
committed for the selected scale, and prints each experiment's series
and verdicts (``-s``).  The scale is selected with the
``RCAST_BENCH_SCALE`` environment variable:

* ``smoke`` — a tiny network (30 nodes, 40 s, one repetition); the whole
  suite takes about 5 s with 2 workers;
* ``bench`` — the default: the paper's topology and traffic at a shorter
  simulated duration (shape-preserving; about 3 minutes with 2 workers);
* ``paper`` — the full 100-node / 1125 s / 10-repetition setup (hours).

``RCAST_BENCH_WORKERS`` selects the worker-process count for the parallel
execution engine (default 1 = serial; 0 = all cores).  Aggregated results
are bit-identical for any worker count, so the verdicts are unaffected by
parallelism.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.scenarios import SCALES, ExperimentScale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale selected via RCAST_BENCH_SCALE."""
    name = os.environ.get("RCAST_BENCH_SCALE", "bench").lower()
    if name not in SCALES:
        raise ValueError(
            f"RCAST_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


@pytest.fixture(scope="session")
def workers() -> int:
    """Worker-process count selected via RCAST_BENCH_WORKERS (0 = cores)."""
    return int(os.environ.get("RCAST_BENCH_WORKERS", "1"))
