"""Export experiment results to JSON/CSV for external plotting.

The benchmark harness prints text tables; this module serializes the same
data structurally so downstream users can regenerate the paper's figures
with their plotting tool of choice.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np
from numpy.typing import NDArray

from repro.experiments.runner import AggregateMetrics
from repro.experiments.sweep import SweepResult

PathLike = Union[str, Path]


def _vector(value: Optional[NDArray[np.float64]]) -> Optional[List[float]]:
    """Explicit ndarray -> list encoding; ``None`` stays ``None``."""
    if value is None:
        return None
    return [float(v) for v in np.asarray(value).ravel()]

#: scalar fields of AggregateMetrics exported per cell
SCALAR_FIELDS = (
    "total_energy", "total_energy_ci",
    "energy_variance", "energy_variance_ci",
    "pdr", "pdr_ci",
    "avg_delay", "avg_delay_ci",
    "energy_per_bit", "energy_per_bit_ci",
    "normalized_overhead", "normalized_overhead_ci",
)


def aggregate_to_dict(agg: AggregateMetrics) -> Dict[str, Any]:
    """JSON-safe dict of one aggregate (vectors included)."""
    out: Dict[str, Any] = {"scheme": agg.scheme,
                           "repetitions": agg.repetitions}
    for field in SCALAR_FIELDS:
        value = getattr(agg, field)
        out[field] = None if not np.isfinite(value) else float(value)
    out["sorted_node_energy"] = _vector(agg.sorted_node_energy)
    out["role_numbers"] = _vector(agg.role_numbers)
    out["node_energy"] = _vector(agg.node_energy)
    out["dropped_replications"] = dict(agg.dropped_replications)
    return out


def sweep_to_dict(result: SweepResult) -> Dict[str, Any]:
    """JSON-safe dict of a full sweep grid.

    ``replications`` carries one manifest per (cell, rep) — seed, config
    hash, events processed, plus the measured wall time and events/sec —
    so benchmark trajectories can be seeded from real runs.  Wall times
    are measurements and differ run to run; everything else in the export
    is deterministic.
    """
    cells: List[Dict[str, Any]] = []
    for (scheme, rate, mobile), agg in sorted(
        result.cells.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0])
    ):
        cell = aggregate_to_dict(agg)
        cell.update(rate=rate, mobile=mobile)
        cells.append(cell)
    return {
        "scale": result.scale_name,
        "schemes": list(result.schemes),
        "rates": list(result.rates),
        "scenarios": ["mobile" if m else "static" for m in result.scenarios],
        "cells": cells,
        "replications": [m.to_dict() for m in result.manifests],
    }


def write_sweep_json(result: SweepResult, path: PathLike) -> Path:
    """Serialize a sweep to JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(sweep_to_dict(result), indent=2))
    return path


def write_sweep_csv(result: SweepResult, path: PathLike) -> Path:
    """Serialize a sweep's scalar metrics to CSV; returns the written path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scheme", "rate", "scenario"] + list(SCALAR_FIELDS))
        for (scheme, rate, mobile), agg in sorted(
            result.cells.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0])
        ):
            row = [scheme, rate, "mobile" if mobile else "static"]
            for field in SCALAR_FIELDS:
                value = getattr(agg, field)
                row.append("" if not np.isfinite(value) else f"{value:.10g}")
            writer.writerow(row)
    return path


def result_to_jsonable(obj: Any) -> Any:
    """Recursively convert any experiment result object to JSON-safe data.

    Handles dataclasses (including the per-figure result types), numpy
    arrays and scalars, dicts with non-string keys (stringified), and
    non-finite floats (``None`` — JSON has no inf/nan).  This is the
    generic encoder behind the CLI's ``--json-out``; the structured sweep
    export (:func:`sweep_to_dict`) remains the stable schema for sweeps.
    """
    if isinstance(obj, AggregateMetrics):
        return aggregate_to_dict(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: result_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return [result_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, dict):
        return {
            (key if isinstance(key, str) else str(key)):
                result_to_jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [result_to_jsonable(v) for v in obj]
    return obj


def write_result_json(result: Any, path: PathLike) -> Path:
    """Serialize any experiment result via :func:`result_to_jsonable`."""
    path = Path(path)
    path.write_text(json.dumps(result_to_jsonable(result), indent=2))
    return path


__all__ = [
    "SCALAR_FIELDS",
    "aggregate_to_dict",
    "sweep_to_dict",
    "write_sweep_json",
    "write_sweep_csv",
    "result_to_jsonable",
    "write_result_json",
]
