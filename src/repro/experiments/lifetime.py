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
from typing import Callable, Dict, List, Optional

from repro.constants import POWER_AWAKE_W
from repro.experiments.parallel import run_grid
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


def run(scale: ExperimentScale, seed: int = 1, progress: Optional[Callable[[str], None]] = None,
        workers: Optional[int] = None,
        overhearing_policy: str = "fixed") -> LifetimeResult:
    """Run the lifetime comparison (static scenario, low rate).

    With a non-fixed ``overhearing_policy`` the rcast column runs under
    that adaptive P_R policy — the energy-budget controller in
    particular reads the same finite battery this experiment installs.
    """
    battery = 0.6 * POWER_AWAKE_W * scale.sim_time
    configs = {
        scheme: make_config(scale, scheme, scale.low_rate, mobile=False,
                            seed=seed, battery_joules=battery,
                            overhearing_policy=overhearing_policy)
        for scheme in SCHEMES
    }
    grid = run_grid(configs, scale.repetitions, workers=workers)
    summaries: Dict[str, LifetimeSummary] = {}
    for scheme in SCHEMES:
        reports = [lifetime_from_metrics(m, battery) for m in grid[scheme]]
        summaries[scheme] = LifetimeSummary(
            scheme=scheme,
            first_death=mean([r.first_death for r in reports]),
            half_life=mean([r.half_life for r in reports]),
            alive_at_end=mean([r.alive_fraction(scale.sim_time)
                               for r in reports]),
        )
        if progress is not None:
            progress(f"{scheme}: first death {summaries[scheme].first_death:.1f}s")
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


__all__ = ["LifetimeResult", "LifetimeSummary", "run", "verdicts",
           "format_result", "SCHEMES"]
