"""Extension study: adaptive P_R policies vs the paper's fixed 1/n.

Runs the ``rcast`` scheme under each receiver-side overhearing policy
(:data:`POLICIES`) on the static scenario at the scale's focus rate, at
one or more node counts.  At a scale with the paper's 100 nodes the node
axis is (100, 1000): the paper's population and a 10x build-out with the
arena area scaled to hold the fig7 node density (the same convention as
the large-scale benchmark); any other scale runs its own node count.

Reported per (policy, node count) cell:

* the usual :class:`~repro.experiments.runner.AggregateMetrics`,
* the mean empirical overhear rate (elections / decisions),
* policy-specific extras — estimator MAE vs the oracle degree for
  ``degree``, summed arm/exploration histograms for ``bandit``, the mean
  P_R multiplier for ``energy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import constants
from repro.core.adaptive import BANDIT_ARM_LABELS
from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate, runs_by_cell
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.metrics.collector import RunMetrics
from repro.metrics.report import format_table
from repro.metrics.stats import mean

#: Policies compared, fixed 1/n first (the paper's baseline).
POLICIES = ("fixed", "degree", "energy", "bandit")

#: Grid cell key: (policy, node count).
Cell = Tuple[str, int]


def default_node_counts(scale: ExperimentScale) -> Tuple[int, ...]:
    """Node-count axis: the scale's own population, plus a 10x build-out
    when that is the paper's."""
    if scale.num_nodes == constants.NUM_NODES:
        return (scale.num_nodes, 10 * scale.num_nodes)
    return (scale.num_nodes,)


def _arena_for(scale: ExperimentScale, num_nodes: int) -> Tuple[float, float]:
    """Arena holding the scale's node density at ``num_nodes`` (square
    when grown, so the build-out does not degenerate into a long strip)."""
    if num_nodes == scale.num_nodes:
        return scale.arena_w, scale.arena_h
    area = scale.arena_w * scale.arena_h * (num_nodes / scale.num_nodes)
    side = math.sqrt(area)
    return side, side


@dataclass
class AdaptiveCellSummary:
    """One (policy, node count) cell of the study."""

    policy: str
    num_nodes: int
    metrics: AggregateMetrics
    #: mean over replications of elections / decisions
    overhear_rate: float
    overhear_decisions: float
    #: degree policy only: mean |estimate - oracle degree| over warm nodes
    estimator_mae: Optional[float] = None
    #: energy policy only: mean end-of-run P_R multiplier
    mean_multiplier: Optional[float] = None
    #: bandit only: arm selections summed over nodes and replications
    arm_counts: Optional[List[int]] = None
    #: bandit only: the exploration subset of ``arm_counts``
    explore_counts: Optional[List[int]] = None


@dataclass
class AdaptiveStudyResult:
    """All cells of the adaptive-overhearing comparison."""

    scale_name: str
    rate: float
    node_counts: Tuple[int, ...]
    policies: Tuple[str, ...]
    cells: Dict[Cell, AdaptiveCellSummary] = field(default_factory=dict)

    def get(self, policy: str, num_nodes: int) -> AdaptiveCellSummary:
        """Summary for one cell."""
        return self.cells[(policy, num_nodes)]


def _summarize(policy: str, num_nodes: int,
               runs: Sequence[RunMetrics]) -> AdaptiveCellSummary:
    cell = AdaptiveCellSummary(
        policy=policy,
        num_nodes=num_nodes,
        metrics=aggregate(list(runs)),
        overhear_rate=mean([m.empirical_overhear_rate for m in runs]),
        overhear_decisions=mean([float(m.overhear_decisions) for m in runs]),
    )
    summaries = [m.adaptive for m in runs if m.adaptive is not None]
    if policy == "degree":
        maes = [s["estimator_mae"] for s in summaries
                if s.get("estimator_mae") is not None]
        cell.estimator_mae = mean(maes) if maes else None
    elif policy == "energy":
        multipliers = [s["mean_multiplier"] for s in summaries
                       if s.get("mean_multiplier") is not None]
        cell.mean_multiplier = mean(multipliers) if multipliers else None
    elif policy == "bandit":
        arms = [0] * len(BANDIT_ARM_LABELS)
        explores = [0] * len(BANDIT_ARM_LABELS)
        for summary in summaries:
            for i, count in enumerate(summary["arm_counts"]):
                arms[i] += count
            for i, count in enumerate(summary["explore_counts"]):
                explores[i] += count
        cell.arm_counts = arms
        cell.explore_counts = explores
    return cell


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[Cell, int], Job]:
    """The policy x node-count grid (static scenario, focus rate)."""
    configs = {}
    for num_nodes in default_node_counts(scale):
        arena_w, arena_h = _arena_for(scale, num_nodes)
        for policy in POLICIES:
            configs[(policy, num_nodes)] = make_config(
                scale, "rcast", scale.low_rate, mobile=False, seed=seed,
                num_nodes=num_nodes, arena_w=arena_w, arena_h=arena_h,
                overhearing_policy=policy,
            )
    return replications(configs, scale.repetitions)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[Cell, int], Any]) -> AdaptiveStudyResult:
    """One summary per (policy, node count) cell."""
    result = AdaptiveStudyResult(
        scale_name=scale.name, rate=scale.low_rate,
        node_counts=default_node_counts(scale), policies=POLICIES,
    )
    for (policy, num_nodes), runs in runs_by_cell(results).items():
        result.cells[(policy, num_nodes)] = _summarize(policy, num_nodes,
                                                       runs)
    return result


def format_result(result: AdaptiveStudyResult) -> str:
    """One comparison table per node count, plus bandit histograms."""
    blocks = []
    for num_nodes in result.node_counts:
        rows = []
        for policy in result.policies:
            cell = result.get(policy, num_nodes)
            agg = cell.metrics
            rows.append([
                policy,
                agg.pdr * 100.0,
                agg.total_energy,
                agg.energy_per_bit * 1e6,
                cell.overhear_rate * 100.0,
            ])
        blocks.append(format_table(
            ["policy", "PDR [%]", "energy [J]", "EPB [uJ/bit]",
             "P_R empirical [%]"],
            rows,
            title=(f"Adaptive overhearing, n={num_nodes}, "
                   f"rate={result.rate} pkt/s, static"),
        ))
        bandit = result.cells.get(("bandit", num_nodes))
        if bandit is not None and bandit.arm_counts is not None:
            pairs = ", ".join(
                f"{label}:{count}" for label, count in
                zip(BANDIT_ARM_LABELS, bandit.arm_counts))
            blocks.append(f"bandit arms (n={num_nodes}): {pairs}")
        degree = result.cells.get(("degree", num_nodes))
        if degree is not None and degree.estimator_mae is not None:
            blocks.append(
                f"degree estimator MAE (n={num_nodes}): "
                f"{degree.estimator_mae:.2f} neighbors")
    return "\n\n".join(blocks)


__all__ = [
    "POLICIES",
    "AdaptiveCellSummary",
    "AdaptiveStudyResult",
    "default_node_counts",
    "fold",
    "format_result",
    "jobs",
]
