"""Replication aggregation.

The paper repeats every scenario ten times;
:func:`~repro.experiments.parallel.replications` lays the replications
out as ``(cell, rep)``-keyed jobs with deterministically derived seeds,
and :func:`~repro.experiments.parallel.run_jobs` returns their results
under the same keys, serially or across a process pool.
:func:`aggregate` folds the per-run
:class:`~repro.metrics.collector.RunMetrics` into means with 95%
confidence half-widths, so the aggregate is bit-identical for any worker
count; :func:`aggregate_cells` does so for every cell of a result table.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import (Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
                    TypeVar)

import numpy as np
from numpy.typing import NDArray

from repro.metrics.collector import RunMetrics
from repro.metrics.stats import confidence_interval_95, mean


CellT = TypeVar("CellT", bound=Hashable)
V = TypeVar("V")


class NonFiniteReplicationWarning(RuntimeWarning):
    """Raised when :func:`aggregate` drops non-finite replication values."""


@dataclass(eq=False)
class AggregateMetrics:
    """Across-replication means (and 95% CIs) of the paper's quantities."""

    scheme: str
    repetitions: int
    total_energy: float
    total_energy_ci: float
    energy_variance: float
    energy_variance_ci: float
    pdr: float
    pdr_ci: float
    avg_delay: float
    avg_delay_ci: float
    energy_per_bit: float
    energy_per_bit_ci: float
    normalized_overhead: float
    normalized_overhead_ci: float
    #: per-node energy sorted ascending, averaged element-wise across runs
    #: (the paper's Fig. 5 curves)
    sorted_node_energy: Optional[NDArray[np.float64]] = None
    #: element-wise mean role numbers (unsorted, node-indexed)
    role_numbers: Optional[NDArray[np.float64]] = None
    #: mean per-node energy vector (node-indexed, for scatter plots)
    node_energy: Optional[NDArray[np.float64]] = None
    #: per-metric count of replications whose value was non-finite and was
    #: therefore excluded from that metric's mean/CI (empty = none dropped)
    dropped_replications: Dict[str, int] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        """Field-wise equality with ndarray-aware comparison.

        The generated dataclass ``__eq__`` raises on ndarray fields
        (ambiguous truth value); this version compares vectors with
        :func:`numpy.array_equal` so aggregates from different worker
        counts can be checked for bit-identity directly.
        """
        if not isinstance(other, AggregateMetrics):
            return NotImplemented
        for f in dataclasses.fields(self):
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if a is None or b is None:
                    return False
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    def describe(self) -> str:
        """One-line summary."""
        line = (
            f"{self.scheme}: E={self.total_energy:.1f}J "
            f"var={self.energy_variance:.1f} PDR={self.pdr * 100:.1f}% "
            f"delay={self.avg_delay * 1e3:.0f}ms "
            f"EPB={self.energy_per_bit * 1e6:.1f}uJ/bit "
            f"ovh={self.normalized_overhead:.2f}"
        )
        if self.dropped_replications:
            drops = ",".join(f"{k}:{v}"
                             for k, v in sorted(self.dropped_replications.items()))
            line += f" [non-finite reps dropped: {drops}]"
        return line


def aggregate(runs: Sequence[RunMetrics]) -> AggregateMetrics:
    """Fold replications into means with confidence half-widths.

    Non-finite per-replication values (e.g. infinite energy-per-bit when a
    run delivered nothing) are excluded from that metric's mean/CI, but
    never silently: each exclusion is counted in
    ``AggregateMetrics.dropped_replications`` and a
    :class:`NonFiniteReplicationWarning` is emitted.
    """
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    scheme = runs[0].scheme
    dropped: Dict[str, int] = {}

    def agg(name: str, values: List[float]) -> Tuple[float, float]:
        """Mean and 95% CI over the finite values, counting exclusions."""
        finite = [v for v in values if np.isfinite(v)]
        excluded = len(values) - len(finite)
        if excluded:
            dropped[name] = excluded
            warnings.warn(
                f"aggregate({scheme}): dropped {excluded}/{len(values)} "
                f"non-finite {name} replication values",
                NonFiniteReplicationWarning,
                stacklevel=3,
            )
        if not finite:
            return float("inf"), 0.0
        return mean(finite), confidence_interval_95(finite)

    te, te_ci = agg("total_energy", [r.total_energy for r in runs])
    ev, ev_ci = agg("energy_variance", [r.energy_variance for r in runs])
    pdr, pdr_ci = agg("pdr", [r.pdr for r in runs])
    dly, dly_ci = agg("avg_delay", [r.avg_delay for r in runs])
    epb, epb_ci = agg("energy_per_bit", [r.energy_per_bit for r in runs])
    ovh, ovh_ci = agg("normalized_overhead",
                      [r.normalized_overhead for r in runs])
    sorted_energy = np.mean(
        np.stack([r.sorted_node_energy() for r in runs]), axis=0
    )
    roles = np.mean(np.stack([r.role_numbers for r in runs]), axis=0)
    node_energy = np.mean(np.stack([r.node_energy for r in runs]), axis=0)
    return AggregateMetrics(
        scheme=scheme, repetitions=len(runs),
        total_energy=te, total_energy_ci=te_ci,
        energy_variance=ev, energy_variance_ci=ev_ci,
        pdr=pdr, pdr_ci=pdr_ci,
        avg_delay=dly, avg_delay_ci=dly_ci,
        energy_per_bit=epb, energy_per_bit_ci=epb_ci,
        normalized_overhead=ovh, normalized_overhead_ci=ovh_ci,
        sorted_node_energy=sorted_energy,
        role_numbers=roles,
        node_energy=node_energy,
        dropped_replications=dropped,
    )


def runs_by_cell(
    results: Mapping[Tuple[CellT, int], V],
) -> Dict[CellT, List[V]]:
    """Group ``(cell, rep)``-keyed results per cell, in key order.

    Cells come out in first-seen order and each cell's results in the
    order of their keys: repetition order for tables laid out by
    :func:`~repro.experiments.parallel.replications`.
    """
    grouped: Dict[CellT, List[V]] = {}
    for (cell, _), value in results.items():
        grouped.setdefault(cell, []).append(value)
    return grouped


def aggregate_cells(
    results: Mapping[Tuple[CellT, int], RunMetrics],
) -> Dict[CellT, AggregateMetrics]:
    """One :func:`aggregate` per cell of a ``(cell, rep)``-keyed table."""
    return {cell: aggregate(runs)
            for cell, runs in runs_by_cell(results).items()}


__all__ = [
    "AggregateMetrics",
    "NonFiniteReplicationWarning",
    "aggregate",
    "aggregate_cells",
    "runs_by_cell",
]
