"""Figures 6-8: the paper's rate sweeps, as rows of one table.

Each figure plots one series per scheme over the packet-rate axis, one
panel per metric and scenario (mobile / static), all read off the same
(scheme x rate x scenario) grid.  :data:`FIGURES` holds one row per
figure — its panels, an optional line after each scenario, its shape
predicates:

* Fig. 6: variance of per-node energy, plus Rcast's improvement over ODPM
  (the paper reports 243-400%);
* Fig. 7: total energy, PDR and energy per delivered bit, plus the
  headline gaps (paper: Rcast 28-75% below ODPM mobile, 37-131% static);
* Fig. 8: average end-to-end delay (PSM pays ~125 ms per hop) and
  normalized routing overhead (control tx per delivered packet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.export import result_to_jsonable
from repro.experiments.parallel import Job
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.sweep import SweepKey, cell_jobs
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_series, ratio_improvement
from repro.metrics.stats import mean

SCHEMES = ("ieee80211", "odpm", "rcast")


@dataclass
class SeriesResult:
    """Per-scenario, per-panel, per-scheme series over the rate axis."""

    figure: str
    scale_name: str
    rates: Tuple[float, ...]
    #: (mobile?) -> panel key -> scheme -> series
    data: Dict[bool, Dict[str, Dict[str, List[float]]]]

    def gap_vs(self, scheme: str, mobile: bool) -> List[float]:
        """Percent by which ``scheme`` exceeds Rcast in total energy."""
        energy = self.data[mobile]["total_energy"]
        return [ratio_improvement(o, r)
                for o, r in zip(energy[scheme], energy["rcast"])]


@dataclass(frozen=True)
class Panel:
    """One plotted metric; ``vs_odpm`` appends Rcast's improvement [%]."""

    key: str
    title: str
    value: Callable[[AggregateMetrics], float]
    vs_odpm: bool = False


@dataclass(frozen=True)
class Figure:
    """One row of the table; ``note`` is printed after each scenario."""

    panels: Tuple[Panel, ...]
    verdicts: Callable[[SeriesResult], List[Verdict]]
    note: Optional[Callable[[SeriesResult, bool], str]] = None


def _scenario(mobile: bool) -> str:
    return "mobile" if mobile else "static"


def _fig6_verdicts(result: SeriesResult) -> List[Verdict]:
    out = []
    for mobile in (True, False):
        var, at = result.data[mobile]["variance"], f"[{_scenario(mobile)}]"
        wins = sum(r < o for r, o in zip(var["rcast"], var["odpm"]))
        out += [check("80211_flat" + at, "802.11's variance is ~0 at every "
                      "rate", max(var["ieee80211"]), "<=", 1.0),
                check("rcast_balance" + at, "Rcast's variance is below "
                      "ODPM's at (essentially) every rate",
                      wins, ">=", len(result.rates) - 1)]
    return out


def _each_point(result: SeriesResult, name: str, claim: str, key: str,
                low: str, op: str, high: str, factor: float = 1.0,
                keep: Callable[[float], bool] = lambda rate: True
                ) -> List[Verdict]:
    """``low op high * factor`` on panel ``key`` at every kept point."""
    return [check(f"{name}[{_scenario(mobile)} {rate}]", claim,
                  result.data[mobile][key][low][i], op,
                  result.data[mobile][key][high][i] * factor)
            for mobile in (True, False)
            for i, rate in enumerate(result.rates) if keep(rate)]


def _fig7_verdicts(result: SeriesResult) -> List[Verdict]:
    top = max(result.rates)
    out = (_each_point(result, "80211_above_odpm", "802.11 uses more energy "
                       "than ODPM", "total_energy", "ieee80211", ">", "odpm")
           + _each_point(result, "odpm_above_rcast", "ODPM uses more energy "
                         "than Rcast", "total_energy", "odpm", ">", "rcast",
                         keep=lambda rate: rate < top)
           # At saturation every node on an active path is awake in both
           # schemes and the totals converge; allow a near-tie.
           + _each_point(result, "rcast_near_odpm", "at saturation Rcast is "
                         "within 10% of ODPM", "total_energy", "rcast", "<",
                         "odpm", 1.10, keep=lambda rate: rate >= top)
           + _each_point(result, "rcast_epb", "Rcast's energy per bit is "
                         "below 802.11's", "energy_per_bit", "rcast", "<",
                         "ieee80211"))
    for mobile in (True, False):
        label = _scenario(mobile)
        out += [check(f"pdr_floor[{label} {s}]", "delivery stays high "
                      "across the sweep (> 80%)",
                      min(result.data[mobile]["pdr"][s]), ">", 80.0)
                for s in SCHEMES]
        out.append(check(f"headline_gap[{label}]", "Rcast is substantially "
                         "below ODPM at some rate (gap > 15%)",
                         max(result.gap_vs("odpm", mobile)), ">", 15.0))
    return out


def _fig8_verdicts(result: SeriesResult) -> List[Verdict]:
    out = (_each_point(result, "80211_faster", "802.11's delay is below "
                       "ODPM's", "avg_delay", "ieee80211", "<", "odpm")
           + _each_point(result, "odpm_faster", "ODPM's delay is below "
                         "Rcast's", "avg_delay", "odpm", "<", "rcast"))

    def overhead(mobile: bool, scheme: str) -> float:
        return mean(result.data[mobile]["overhead"][scheme])

    out += [check(f"mobility_overhead[{s}]", "mobility costs routing "
                  "overhead (more breaks)", overhead(True, s), ">",
                  overhead(False, s) * 0.8) for s in SCHEMES]
    for mobile in (True, False):
        base = overhead(mobile, "ieee80211")
        out.append(check(f"rcast_overhead[{_scenario(mobile)}]", "Rcast's "
                         "overhead stays within a small factor of 802.11's",
                         overhead(mobile, "rcast"), "<",
                         max(base * 6.0, base + 5.0)))
    return out


def _fig7_note(result: SeriesResult, mobile: bool) -> str:
    gaps = result.gap_vs("odpm", mobile)
    base_gaps = result.gap_vs("ieee80211", mobile)
    return (
        f"Rcast energy advantage ({_scenario(mobile)}): "
        f"vs ODPM {min(gaps):.0f}%..{max(gaps):.0f}% "
        f"(paper: 28..75% mobile / 37..131% static); "
        f"vs 802.11 {min(base_gaps):.0f}%..{max(base_gaps):.0f}%"
    )


FIGURES: Dict[str, Figure] = {
    "fig6": Figure((Panel("variance", "variance of per-node energy [J^2]",
                          lambda a: a.energy_variance, vs_odpm=True),),
                   _fig6_verdicts),
    "fig7": Figure((Panel("total_energy", "total energy [J]",
                          lambda a: a.total_energy),
                    Panel("pdr", "packet delivery ratio [%]",
                          lambda a: a.pdr * 100.0),
                    Panel("energy_per_bit", "energy per delivered bit "
                          "[J/bit]", lambda a: a.energy_per_bit)),
                   _fig7_verdicts, _fig7_note),
    "fig8": Figure((Panel("avg_delay", "average end-to-end delay [s]",
                          lambda a: a.avg_delay),
                    Panel("overhead", "normalized routing overhead "
                          "[ctrl tx / delivered pkt]",
                          lambda a: a.normalized_overhead)),
                   _fig8_verdicts),
}


def jobs(scale: ExperimentScale, seed: int = 1,
         overhearing_policy: str = "fixed"
         ) -> Dict[Tuple[SweepKey, int], Job]:
    """The three schemes over the scale's rate axis, both scenarios.

    ``overhearing_policy`` selects the receiver-side P_R policy
    (:mod:`repro.core.adaptive`); only the rcast column reacts — the
    other schemes never advertise RANDOMIZED levels.
    """
    return cell_jobs(scale, [(scheme, rate, mobile)
                             for mobile in (True, False)
                             for rate in scale.rates for scheme in SCHEMES],
                     seed, overhearing_policy=overhearing_policy)


def fold(figure: str, scale: ExperimentScale,
         results: Mapping[Tuple[SweepKey, int], Any]) -> SeriesResult:
    """One figure's series from the replications of :func:`jobs`."""
    cells = aggregate_cells(results)
    rates = tuple(scale.rates)
    data = {mobile: {panel.key: {
        scheme: [panel.value(cells[(scheme, rate, mobile)])
                 for rate in rates] for scheme in SCHEMES}
        for panel in FIGURES[figure].panels} for mobile in (True, False)}
    return SeriesResult(figure, scale.name, rates, data)


def verdicts(result: SeriesResult) -> List[Verdict]:
    """The figure's shape predicates."""
    return FIGURES[result.figure].verdicts(result)


def format_result(result: SeriesResult) -> str:
    """Text rendering of every panel, scenario by scenario."""
    figure = FIGURES[result.figure]
    blocks = []
    for mobile in (True, False):
        for panel in figure.panels:
            series = dict(result.data[mobile][panel.key])
            if panel.vs_odpm:
                series["rcast vs odpm [%]"] = [
                    ratio_improvement(o, r)
                    for o, r in zip(series["odpm"], series["rcast"])]
            blocks.append(format_series(
                "rate [pkt/s]", list(result.rates), series,
                title=(f"Fig.{result.figure[3:]}: {panel.title}, "
                       f"{_scenario(mobile)}")))
        if figure.note is not None:
            blocks.append(figure.note(result, mobile))
    return "\n\n".join(blocks)


def to_json(result: SeriesResult) -> Any:
    """JSON export; a one-panel figure (Fig. 6) keys its series by the
    panel, ``{mobile: {scheme: series}}``, the others export ``data``."""
    panels = FIGURES[result.figure].panels
    if len(panels) > 1:
        return result_to_jsonable(result)
    key = panels[0].key
    return result_to_jsonable({
        "figure": result.figure, "scale_name": result.scale_name,
        "rates": result.rates,
        key: {mobile: data[key] for mobile, data in result.data.items()}})


__all__ = ["FIGURES", "Figure", "Panel", "SeriesResult", "SCHEMES", "jobs",
           "fold", "verdicts", "format_result", "to_json"]
