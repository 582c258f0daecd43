"""Resilience study: scheme degradation under injected faults (extension).

The paper evaluates the schemes on a fault-free network; this extension
asks how gracefully each one degrades when the network misbehaves.  Two
stress axes, swept independently over the static scenario at the paper's
focus rate:

* **crash axis** — a :class:`~repro.faults.plan.RandomCrashes` plan kills
  each node with probability ``f`` (no recovery) at a uniform time in the
  middle of the run, for ``f`` in :data:`CRASH_FRACTIONS`;
* **loss axis** — a :class:`~repro.faults.plan.PacketLoss` plan drops each
  otherwise-successful frame delivery i.i.d. with probability ``p``, for
  ``p`` in :data:`LOSS_RATES`.

Both axes share one fault-free baseline cell per scheme (level 0.0), so
the reported degradation is relative to *this* build's fault-free numbers,
not to an external reference.  Expected shape: PDR falls with either
stress for every scheme; 802.11 holds delivery best (it never sleeps
through a retransmission opportunity) at a flat, maximal energy price,
while Rcast keeps its energy advantage and its PDR within a few points of
ODPM's — randomized overhearing loses redundant route-repair information,
not primary routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.faults.plan import FaultPlan, PacketLoss, RandomCrashes
from repro.metrics.report import format_series
from repro.network import SimulationConfig

SCHEMES = ("ieee80211", "odpm", "rcast")

#: Crash-axis stress levels: expected fraction of nodes lost mid-run.
CRASH_FRACTIONS = (0.0, 0.1, 0.2, 0.3)

#: Loss-axis stress levels: per-delivery Bernoulli drop probability.
LOSS_RATES = (0.0, 0.05, 0.1, 0.2)

#: Axis key -> (label, level tuple) — level 0.0 is the shared baseline.
AXES = ("crash", "loss")

METRICS = {
    "pdr": lambda a: a.pdr * 100.0,
    "total_energy": lambda a: a.total_energy,
}

#: Grid cell key: (axis, scheme, stress level).
Cell = Tuple[str, str, float]


def _crash_plan(fraction: float, sim_time: float) -> FaultPlan:
    """Permanent random crashes in the middle 60% of the run.

    Crashing strictly inside (0, 0.7*T] leaves time for traffic to start
    and for the survivors' routing to react, so PDR measures adaptation,
    not merely the fraction of flows whose endpoint died.
    """
    return FaultPlan((RandomCrashes(
        fraction=fraction, start=0.1 * sim_time, stop=0.7 * sim_time,
    ),))


def _loss_plan(rate: float) -> FaultPlan:
    return FaultPlan((PacketLoss(rate=rate),))


@dataclass
class ResilienceResult:
    """Per-axis, per-metric, per-scheme series over the stress levels."""

    scale_name: str
    crash_fractions: Tuple[float, ...]
    loss_rates: Tuple[float, ...]
    #: axis -> metric -> scheme -> series (index-aligned with the axis
    #: levels; index 0 is the shared fault-free baseline)
    data: Dict[str, Dict[str, Dict[str, List[float]]]]

    def levels(self, axis: str) -> Tuple[float, ...]:
        """Stress levels of ``axis`` (baseline first)."""
        return self.crash_fractions if axis == "crash" else self.loss_rates

    def pdr_drop(self, axis: str, scheme: str) -> float:
        """PDR points lost between baseline and the worst stress level."""
        series = self.data[axis]["pdr"][scheme]
        return series[0] - series[-1]


def jobs(scale: ExperimentScale, seed: int = 1,
         overhearing_policy: str = "fixed") -> Dict[Tuple[Cell, int], Job]:
    """Both stress sweeps, one shared fault-free baseline per scheme.

    ``overhearing_policy`` applies the selected adaptive P_R policy to
    the rcast column, asking how each policy degrades under faults.
    """
    sim_time = scale.sim_time

    def cfg(scheme: str, plan: Optional[FaultPlan]) -> SimulationConfig:
        return make_config(scale, scheme, scale.low_rate, mobile=False,
                           seed=seed, faults=plan,
                           overhearing_policy=overhearing_policy)

    configs: Dict[Cell, SimulationConfig] = {}
    for scheme in SCHEMES:
        # One shared baseline per scheme, reported on both axes.
        configs[("baseline", scheme, 0.0)] = cfg(scheme, None)
        for fraction in CRASH_FRACTIONS:
            if fraction > 0.0:
                configs[("crash", scheme, fraction)] = cfg(
                    scheme, _crash_plan(fraction, sim_time))
        for rate in LOSS_RATES:
            if rate > 0.0:
                configs[("loss", scheme, rate)] = cfg(
                    scheme, _loss_plan(rate))

    return replications(configs, scale.repetitions)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[Cell, int], Any]) -> ResilienceResult:
    """Replications folded into per-axis series over the stress levels."""
    folded: Dict[Cell, AggregateMetrics] = aggregate_cells(results)

    def series(axis: str, metric: str, scheme: str) -> List[float]:
        fn = METRICS[metric]
        out = [fn(folded[("baseline", scheme, 0.0)])]
        for level in (CRASH_FRACTIONS if axis == "crash" else LOSS_RATES):
            if level > 0.0:
                out.append(fn(folded[(axis, scheme, level)]))
        return out

    data: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        axis: {
            metric: {scheme: series(axis, metric, scheme)
                     for scheme in SCHEMES}
            for metric in METRICS
        }
        for axis in AXES
    }
    return ResilienceResult(scale.name, CRASH_FRACTIONS, LOSS_RATES, data)


def format_result(result: ResilienceResult) -> str:
    """Text tables for both axes plus per-scheme degradation headlines."""
    titles = {
        "pdr": "packet delivery ratio [%]",
        "total_energy": "total energy [J]",
    }
    axis_labels = {
        "crash": "crash fraction",
        "loss": "loss rate",
    }
    blocks = []
    for axis in AXES:
        for metric, title in titles.items():
            blocks.append(format_series(
                axis_labels[axis], list(result.levels(axis)),
                result.data[axis][metric],
                title=f"resilience: {title} vs {axis_labels[axis]}",
            ))
        drops = ", ".join(
            f"{scheme} -{result.pdr_drop(axis, scheme):.1f}pp"
            for scheme in SCHEMES
        )
        blocks.append(
            f"PDR degradation at max {axis_labels[axis]} "
            f"{result.levels(axis)[-1]}: {drops}"
        )
    return "\n\n".join(blocks)


__all__ = [
    "AXES",
    "CRASH_FRACTIONS",
    "LOSS_RATES",
    "ResilienceResult",
    "SCHEMES",
    "fold",
    "format_result",
    "jobs",
]
