"""Figure 5: per-node energy consumption, sorted ascending.

Four panels — (packet rate, scenario) in {low, high} x {mobile, static} —
each showing the per-node energy of all nodes drawn in increasing order for
802.11, ODPM and Rcast: 802.11 flat at ``P_awake x T``, ODPM's step from
the ATIM-only floor to the maximum, Rcast low and smooth.  :func:`verdicts`
states what must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.experiments.parallel import Job
from repro.experiments.runner import AggregateMetrics, aggregate_cells
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.sweep import SweepKey, cell_jobs
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table

SCHEMES = ("ieee80211", "odpm", "rcast")

#: Panel key: (rate, mobile).
PanelKey = Tuple[float, bool]


@dataclass
class Fig5Result:
    """Sorted per-node energy curves for the four panels."""

    scale_name: str
    rates: Tuple[float, float]           # (low, high)
    panels: Dict[PanelKey, Dict[str, NDArray[np.float64]]]


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[SweepKey, int], Job]:
    """The three schemes at both focus rates, in both scenarios."""
    return cell_jobs(scale, [(scheme, rate, mobile)
                             for mobile in (True, False)
                             for rate in (scale.low_rate, scale.high_rate)
                             for scheme in SCHEMES], seed)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[SweepKey, int], Any]) -> Fig5Result:
    """The four panels from the replications of :func:`jobs`."""
    cells = aggregate_cells(results)
    rates = (scale.low_rate, scale.high_rate)
    panels = {(rate, mobile): {scheme: _curve(cells[(scheme, rate, mobile)])
                               for scheme in SCHEMES}
              for mobile in (True, False) for rate in rates}
    return Fig5Result(scale.name, rates, panels)


def _curve(agg: AggregateMetrics) -> NDArray[np.float64]:
    curve = agg.sorted_node_energy
    assert curve is not None, "aggregate() always fills sorted_node_energy"
    return curve


def verdicts(result: Fig5Result) -> List[Verdict]:
    """The panel shapes: 802.11 flat on top, Rcast tighter than ODPM."""
    out: List[Verdict] = []
    for (rate, mobile), curves in sorted(result.panels.items(),
                                         key=lambda kv: (not kv[0][1], kv[0][0])):
        at = f"[{'mobile' if mobile else 'static'} {rate}]"
        base, odpm, rcast = (curves[s] for s in SCHEMES)
        # np.allclose(base, base[0], rtol=1e-6): |a - b| <= 1e-8 + 1e-6|b|.
        out.append(check("80211_flat" + at, "802.11 is a flat line",
                         np.abs(base - base[0]).max(), "<=",
                         1e-8 + 1e-6 * abs(base[0])))
        out += [check(f"80211_above_{s}{at}", "802.11 sits at the maximum, "
                      f"above every {s} node", base[0], ">=",
                      curves[s].max() - 1e-6) for s in ("odpm", "rcast")]
        out.append(check("rcast_tighter" + at, "Rcast's spread (max - min) "
                         "is tighter than ODPM's step",
                         rcast[-1] - rcast[0], "<", odpm[-1] - odpm[0]))
        if rate == result.rates[0]:
            out.append(check("rcast_peak_below_odpm" + at, "away from "
                             "saturation Rcast's hungriest node uses less "
                             "than ODPM's", rcast[-1], "<", odpm[-1]))
        else:
            # At the top rate the involved nodes of both schemes pin to
            # the ceiling and the maxima converge.
            out.append(check("rcast_peak_near_odpm" + at, "at saturation "
                             "Rcast's hungriest node is within 5% of "
                             "ODPM's", rcast[-1], "<=", odpm[-1] * 1.05))
    return out


def format_result(result: Fig5Result, step: int = 10) -> str:
    """Text rendering: sorted energy sampled every ``step`` nodes."""
    blocks: List[str] = []
    for (rate, mobile), curves in sorted(result.panels.items(),
                                         key=lambda kv: (not kv[0][1], kv[0][0])):
        scenario = "mobile" if mobile else "static"
        n = len(next(iter(curves.values())))
        indices = list(range(0, n, step)) + [n - 1]
        rows = []
        for i in indices:
            rows.append([i] + [float(curves[s][i]) for s in SCHEMES])
        blocks.append(format_table(
            ["node(sorted)"] + [f"{s} [J]" for s in SCHEMES],
            rows,
            title=f"Fig.5 panel: rate={rate} pkt/s, {scenario}",
        ))
    return "\n\n".join(blocks)


__all__ = ["Fig5Result", "jobs", "fold", "verdicts",
           "format_result", "SCHEMES"]
