"""Extension experiment: sensitivity to the PSM timing parameters.

The paper fixes beacon interval = 250 ms and ATIM window = 50 ms (citing
Woesner et al. for the choice).  This experiment sweeps the beacon interval
(holding the ATIM fraction at 20%) and, separately, the ATIM fraction
(holding the beacon interval), quantifying the energy/delay trade that
choice encodes:

* longer beacon intervals let idle nodes sleep longer (less energy) but
  every hop waits longer on average (more delay);
* a larger ATIM fraction raises the guaranteed-awake floor
  (``P_awake x fraction``) for every node in the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Tuple

from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table

#: beacon intervals swept (seconds), ATIM fraction fixed at 0.2
BEACON_INTERVALS = (0.1, 0.25, 0.5, 1.0)

#: ATIM fractions swept, beacon interval fixed at 0.25 s
ATIM_FRACTIONS = (0.1, 0.2, 0.4)


@dataclass
class SensitivityResult:
    """Aggregates per (beacon interval) and per (ATIM fraction)."""

    scale_name: str
    rate: float
    by_beacon: Dict[float, AggregateMetrics]
    by_fraction: Dict[float, AggregateMetrics]


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[Hashable, int], Job]:
    """Sweep PSM timing for Rcast (static scenario, low rate)."""
    configs = {}
    for beacon in BEACON_INTERVALS:
        configs[("beacon", beacon)] = make_config(
            scale, "rcast", scale.low_rate, mobile=False, seed=seed,
            beacon_interval=beacon, atim_window=0.2 * beacon,
        )
    for fraction in ATIM_FRACTIONS:
        configs[("fraction", fraction)] = make_config(
            scale, "rcast", scale.low_rate, mobile=False, seed=seed,
            beacon_interval=0.25, atim_window=0.25 * fraction,
        )
    return replications(configs, scale.repetitions)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[Hashable, int], Any]) -> SensitivityResult:
    """Both sweeps, each point aggregated over its replications."""
    cells = aggregate_cells(results)
    by_beacon: Dict[float, AggregateMetrics] = {
        beacon: cells[("beacon", beacon)] for beacon in BEACON_INTERVALS}
    by_fraction: Dict[float, AggregateMetrics] = {
        fraction: cells[("fraction", fraction)]
        for fraction in ATIM_FRACTIONS}
    return SensitivityResult(scale.name, scale.low_rate, by_beacon,
                             by_fraction)


def verdicts(result: SensitivityResult) -> List[Verdict]:
    """Delay rises with the beacon interval, the floor with the ATIM."""
    beacon = [result.by_beacon[b] for b in sorted(result.by_beacon)]
    atim = [result.by_fraction[f] for f in sorted(result.by_fraction)]
    return [check("delay_vs_beacon", "delay rises with the beacon interval",
                  beacon[-1].avg_delay, ">", beacon[0].avg_delay),
            check("energy_vs_atim", "a larger ATIM window raises the "
                  "always-awake floor", atim[-1].total_energy, ">",
                  atim[0].total_energy)] + [
        check(f"pdr[{label} {x}]", "delivery survives every sweep point "
              "(PDR > 85%)", agg.pdr, ">", 0.85)
        for label, points in (("beacon", result.by_beacon),
                              ("atim", result.by_fraction))
        for x, agg in sorted(points.items())]


def format_result(result: SensitivityResult) -> str:
    """Two tables: beacon-interval sweep and ATIM-fraction sweep."""
    rows = []
    for beacon, agg in sorted(result.by_beacon.items()):
        rows.append([f"{beacon * 1e3:.0f} ms", agg.total_energy,
                     agg.pdr * 100.0, agg.avg_delay * 1e3])
    beacon_table = format_table(
        ["beacon interval", "energy [J]", "PDR [%]", "delay [ms]"],
        rows,
        title="PSM sensitivity: beacon interval (ATIM fraction fixed at 20%)",
    )
    rows = []
    for fraction, agg in sorted(result.by_fraction.items()):
        rows.append([f"{fraction:.0%}", agg.total_energy, agg.pdr * 100.0,
                     agg.avg_delay * 1e3])
    fraction_table = format_table(
        ["ATIM fraction", "energy [J]", "PDR [%]", "delay [ms]"],
        rows,
        title="PSM sensitivity: ATIM window fraction (beacon fixed at 250 ms)",
    )
    return beacon_table + "\n\n" + fraction_table


__all__ = ["SensitivityResult", "jobs", "fold", "verdicts", "format_result",
           "BEACON_INTERVALS", "ATIM_FRACTIONS"]
