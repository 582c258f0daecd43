"""Extension experiment: network lifetime under finite batteries.

The paper claims Rcast "improves the energy balance among the nodes and
increases the network lifetime" but reports only the variance; this
experiment quantifies the lifetime claim directly.  Every node gets a
battery an always-awake radio would exhaust in 60% of the run; per-scheme
per-node energy profiles are projected into depletion times
(:mod:`repro.metrics.lifetime`), yielding time-to-first-death, half-life
and the alive fraction at the run horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.constants import POWER_AWAKE_W
from repro.experiments.parallel import Job, replications
from repro.experiments.runner import runs_by_cell
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.lifetime import lifetime_from_metrics
from repro.metrics.report import format_table
from repro.metrics.stats import mean

SCHEMES = ("ieee80211", "odpm", "rcast")


@dataclass
class LifetimeSummary:
    """Across-replication lifetime means for one scheme."""

    scheme: str
    first_death: float
    half_life: float
    alive_at_end: float  # fraction in [0, 1]


@dataclass
class LifetimeResult:
    """Lifetime summaries for all schemes at one operating point."""

    scale_name: str
    rate: float
    battery_joules: float
    summaries: Dict[str, LifetimeSummary]


def _battery(scale: ExperimentScale) -> float:
    """What an always-awake radio exhausts in 60% of the run."""
    return 0.6 * POWER_AWAKE_W * scale.sim_time


def jobs(scale: ExperimentScale, seed: int = 1,
         overhearing_policy: str = "fixed") -> Dict[Tuple[str, int], Job]:
    """The lifetime comparison (static scenario, low rate).

    With a non-fixed ``overhearing_policy`` the rcast column runs under
    that adaptive P_R policy — the energy-budget controller in
    particular reads the same finite battery this experiment installs.
    """
    return replications({
        scheme: make_config(scale, scheme, scale.low_rate, mobile=False,
                            seed=seed, battery_joules=_battery(scale),
                            overhearing_policy=overhearing_policy)
        for scheme in SCHEMES
    }, scale.repetitions)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[str, int], Any]) -> LifetimeResult:
    """Each scheme's runs projected into depletion times, then averaged."""
    battery = _battery(scale)
    runs = runs_by_cell(results)
    summaries: Dict[str, LifetimeSummary] = {}
    for scheme in SCHEMES:
        reports = [lifetime_from_metrics(m, battery) for m in runs[scheme]]
        summaries[scheme] = LifetimeSummary(
            scheme=scheme,
            first_death=mean([r.first_death for r in reports]),
            half_life=mean([r.half_life for r in reports]),
            alive_at_end=mean([r.alive_fraction(scale.sim_time)
                               for r in reports]),
        )
    return LifetimeResult(scale.name, scale.low_rate, battery, summaries)


def verdicts(result: LifetimeResult) -> List[Verdict]:
    """First deaths in the order 802.11, ODPM, Rcast."""
    base, odpm, rcast = (result.summaries[s] for s in SCHEMES)
    return [check("80211_dies_first", "802.11's first battery dies before "
                  "ODPM's", base.first_death, "<", odpm.first_death),
            check("rcast_lives_longest", "ODPM's first battery dies before "
                  "Rcast's", odpm.first_death, "<", rcast.first_death),
            check("rcast_alive_at_end", "at least as many nodes are alive "
                  "at the end under Rcast", rcast.alive_at_end, ">=",
                  odpm.alive_at_end)]


def format_result(result: LifetimeResult) -> str:
    """Comparison table."""
    rows = []
    for scheme in SCHEMES:
        s = result.summaries[scheme]
        rows.append([scheme, s.first_death, s.half_life,
                     s.alive_at_end * 100.0])
    return format_table(
        ["scheme", "first death [s]", "half-life [s]", "alive at end [%]"],
        rows,
        title=(f"Network lifetime, {result.battery_joules:.0f} J batteries, "
               f"rate={result.rate} pkt/s, static"),
    )


__all__ = ["LifetimeResult", "LifetimeSummary", "jobs", "fold", "verdicts",
           "format_result", "SCHEMES"]
