"""Table 1: protocol behaviour of the three schemes, backed by measurement.

The paper's Table 1 is qualitative ("802.11: best PDR and delay but most
energy; ODPM: less delay than Rcast, more energy; Rcast: least energy and
best balance").  This experiment runs all schemes (the paper's three plus
the two PSM baselines) at a mid-load point; :func:`verdicts` checks each
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.experiments.export import result_to_jsonable
from repro.experiments.parallel import Job
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.sweep import SweepKey, cell_jobs
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table

SCHEMES = ("ieee80211", "psm", "psm-nooh", "odpm", "rcast")

BEHAVIOUR = {
    "ieee80211": "no PSM; always awake; immediate transmission",
    "psm": "PSM; unconditional overhearing of every advertisement",
    "psm-nooh": "PSM; no overhearing at all (naive baseline)",
    "odpm": "PSM + AM/PS switching on RREP(5s)/data(2s) timers",
    "rcast": "PSM; randomized overhearing, P_R = 1/neighbors",
}

EXPECTED = {
    "ieee80211": "best PDR/delay, most energy, zero variance",
    "psm": "high energy (everyone overhears), PSM delay",
    "psm-nooh": "least energy, weakest route knowledge",
    "odpm": "lower delay than Rcast, more energy and variance",
    "rcast": "low energy, best energy balance, PSM delay",
}


@dataclass
class Table1Result:
    """Measured behaviour of every scheme at one operating point."""

    scale_name: str
    rate: float
    mobile: bool
    rows: Dict[str, AggregateMetrics]


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[SweepKey, int], Job]:
    """Every scheme at the scale's low rate, mobile scenario."""
    return cell_jobs(scale, [(scheme, scale.low_rate, True)
                             for scheme in SCHEMES], seed)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[SweepKey, int], Any]) -> Table1Result:
    """Table 1 from the replications of :func:`jobs`."""
    cells = aggregate_cells(results)
    rows = {scheme: cells[(scheme, scale.low_rate, True)]
            for scheme in SCHEMES}
    return Table1Result(scale.name, scale.low_rate, True, rows)


def verdicts(result: Table1Result) -> List[Verdict]:
    """The eight behaviour expectations of Table 1."""
    r = result.rows
    base, odpm, rcast = r["ieee80211"], r["odpm"], r["rcast"]
    most = max(r[s].total_energy for s in SCHEMES)
    return [
        check("80211_most_energy", "802.11 consumes the most energy",
              base.total_energy, ">=", most),
        check("80211_best_delay", "802.11 has the best delay", base.avg_delay,
              "<=", min(r[s].avg_delay for s in SCHEMES)),
        check("80211_flat", "802.11 energy variance is (near) zero",
              base.energy_variance, "<=", 1.0),
        check("rcast_below_odpm", "Rcast consumes less energy than ODPM",
              rcast.total_energy, "<", odpm.total_energy),
        check("rcast_below_psm", "Rcast consumes less energy than "
              "unconditional PSM", rcast.total_energy, "<",
              r["psm"].total_energy),
        check("odpm_faster", "ODPM delay is below Rcast delay (immediate AM "
              "transmissions)", odpm.avg_delay, "<", rcast.avg_delay),
        check("rcast_balance", "Rcast balances energy better than ODPM "
              "(lower variance)", rcast.energy_variance, "<",
              odpm.energy_variance),
        check("pdr_floor", "every scheme delivers most packets (PDR > 85%)",
              min(r[s].pdr for s in SCHEMES), ">", 0.85),
    ]


def to_json(result: Table1Result) -> Dict[str, Any]:
    """JSON export, with the ``checks`` list of ``[claim, passed]`` pairs."""
    payload: Dict[str, Any] = result_to_jsonable(result)
    payload["checks"] = [[v.claim, v.passed] for v in verdicts(result)]
    return payload


def format_result(result: Table1Result) -> str:
    """Behaviour table plus measured metrics."""
    rows = []
    for scheme in SCHEMES:
        agg = result.rows[scheme]
        rows.append([
            scheme, agg.total_energy, agg.energy_variance,
            agg.pdr * 100.0, agg.avg_delay * 1e3, agg.normalized_overhead,
        ])
    table = format_table(
        ["scheme", "energy [J]", "variance", "PDR [%]", "delay [ms]",
         "overhead"],
        rows,
        title=(f"Table 1 (measured @ rate={result.rate} pkt/s, "
               f"{'mobile' if result.mobile else 'static'})"),
    )
    lines = [table, "", "behaviour / expectation:"]
    for scheme in SCHEMES:
        lines.append(f"  {scheme:10} {BEHAVIOUR[scheme]}")
        lines.append(f"  {'':10} expected: {EXPECTED[scheme]}")
    return "\n".join(lines)


__all__ = ["Table1Result", "jobs", "fold", "verdicts",
           "to_json", "format_result", "SCHEMES", "BEHAVIOUR"]
