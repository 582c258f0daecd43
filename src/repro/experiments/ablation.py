"""Ablation studies for Rcast's design choices.

Three studies, all marked future work or design alternatives in the paper:

* **Decision factors** (paper Sections 3.2, 5) — the evaluated system uses
  only the neighbor-count probability; we additionally switch on the
  sender-recency, mobility and battery factors, alone and combined.
* **Opportunistic tap** — the paper's Rcast only *uses* overheard frames it
  elected to overhear; this study also taps frames a node happens to hear
  while awake for other reasons (free route information, zero extra energy).
* **Randomized RREQ reception** (paper Sections 3.3, 5) — broadcasts too
  can be received by a random subset (conservatively floored) to fight the
  broadcast-storm problem in dense networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.constants import POWER_AWAKE_W
from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table

#: factor combinations evaluated by the factor ablation
FACTOR_SETS: Tuple[Tuple[str, ...], ...] = (
    (),
    ("sender",),
    ("mobility",),
    ("battery",),
    ("sender", "mobility", "battery"),
)


@dataclass
class AblationResult:
    """Named variants -> aggregated metrics."""

    study: str
    scale_name: str
    rate: float
    variants: Dict[str, AggregateMetrics]


def factors_jobs(scale: ExperimentScale,
                 seed: int = 1) -> Dict[Tuple[str, int], Job]:
    """Rcast decision-factor ablation (mobile scenario, low rate)."""
    # The battery factor needs a finite battery to have any effect; size it
    # so an always-awake node would drain ~2/3 of it during the run.
    battery = 1.5 * POWER_AWAKE_W * scale.sim_time
    return replications({
        ("+".join(factors) if factors else "neighbors-only"): make_config(
            scale, "rcast", scale.low_rate, mobile=True, seed=seed,
            rcast_factors=factors, battery_joules=battery,
        )
        for factors in FACTOR_SETS
    }, scale.repetitions)


def tap_jobs(scale: ExperimentScale,
             seed: int = 1) -> Dict[Tuple[str, int], Job]:
    """Opportunistic-tap ablation (mobile scenario, low rate)."""
    return replications({
        ("tap-on" if tap else "tap-off"): make_config(
            scale, "rcast", scale.low_rate, mobile=True, seed=seed,
            opportunistic_tap=tap,
        )
        for tap in (False, True)
    }, scale.repetitions)


def rreq_jobs(scale: ExperimentScale,
              seed: int = 1) -> Dict[Tuple[str, int], Job]:
    """Randomized RREQ-reception ablation (static dense network)."""
    return replications({
        ("rreq-randomized" if randomized else "rreq-all"): make_config(
            scale, "rcast", scale.low_rate, mobile=False, seed=seed,
            rreq_randomized=randomized,
        )
        for randomized in (False, True)
    }, scale.repetitions)


def fold(study: str, scale: ExperimentScale,
         results: Mapping[Tuple[str, int], Any]) -> AblationResult:
    """One study's variants, each aggregated over its replications."""
    return AblationResult(study, scale.name, scale.low_rate,
                          aggregate_cells(results))


def _pdr_floor(result: AblationResult, floor: float) -> List[Verdict]:
    return [check(f"pdr[{name}]", f"the variant keeps delivering "
                  f"(PDR > {floor:.0%})", agg.pdr, ">", floor)
            for name, agg in result.variants.items()]


def factors_verdicts(result: AblationResult) -> List[Verdict]:
    """Every factor combination stays functional and in Rcast's regime:
    factors modulate overhearing, they must not bring back the
    unconditional-overhearing energy bill."""
    baseline = result.variants["neighbors-only"].total_energy
    return _pdr_floor(result, 0.80) + [
        check(f"energy[{name}]", "the variant stays below 1.8x the "
              "neighbors-only energy", agg.total_energy, "<", baseline * 1.8)
        for name, agg in result.variants.items()]


def tap_verdicts(result: AblationResult) -> List[Verdict]:
    """The tap is (near) free: awake time is decided before any tapping."""
    off, on = (result.variants[v].total_energy for v in ("tap-off", "tap-on"))
    return [check("energy_free", "tapping moves total energy by < 25%",
                  abs(on - off), "<", 0.25 * off)] + _pdr_floor(result, 0.85)


def rreq_verdicts(result: AblationResult) -> List[Verdict]:
    """Floored randomization keeps discovery working at no extra energy."""
    every, randomized = (result.variants[v]
                         for v in ("rreq-all", "rreq-randomized"))
    return [check("pdr", "floored randomization does not break discovery",
                  randomized.pdr, ">", 0.85),
            check("energy", "randomized RREQ reception costs no extra energy",
                  randomized.total_energy, "<=", every.total_energy * 1.1)]


def format_result(result: AblationResult) -> str:
    """Comparison table across variants."""
    rows = []
    for name, agg in result.variants.items():
        rows.append([
            name, agg.total_energy, agg.energy_variance, agg.pdr * 100.0,
            agg.avg_delay * 1e3, agg.normalized_overhead,
        ])
    return format_table(
        ["variant", "energy [J]", "variance", "PDR [%]", "delay [ms]",
         "overhead"],
        rows,
        title=f"Ablation: {result.study} (rate={result.rate} pkt/s)",
    )


__all__ = [
    "FACTOR_SETS",
    "AblationResult",
    "factors_jobs",
    "tap_jobs",
    "rreq_jobs",
    "fold",
    "factors_verdicts",
    "tap_verdicts",
    "rreq_verdicts",
    "format_result",
]
