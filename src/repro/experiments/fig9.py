"""Figure 9: role number vs per-node energy (scatter), mobile scenario.

The role number measures packet-forwarding responsibility (see
:mod:`repro.metrics.role`).  At the high rate the paper reads a maximum
role of ~50 for ODPM against ~30 for Rcast, with Rcast's energy spread
much tighter; :func:`verdicts` states what must hold.
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
from repro.metrics.stats import sample_variance

SCHEMES = ("ieee80211", "odpm", "rcast")


@dataclass
class Fig9Panel:
    """One scheme x rate scatter with its summary statistics."""

    scheme: str
    rate: float
    roles: NDArray[np.float64]   # per-node role numbers
    energy: NDArray[np.float64]  # per-node energy [J]
    max_role: float
    mean_role: float
    role_variance: float
    energy_variance: float
    correlation: float         # Pearson(role, energy); nan if degenerate

    def scatter_points(self) -> List[Tuple[float, float]]:
        """(role, energy) pairs, the raw scatter."""
        return list(zip(self.roles.tolist(), self.energy.tolist()))


@dataclass
class Fig9Result:
    """All six panels of Figure 9."""

    scale_name: str
    rates: Tuple[float, float]
    panels: Dict[Tuple[str, float], Fig9Panel]


def _make_panel(scheme: str, rate: float, agg: AggregateMetrics) -> Fig9Panel:
    roles = agg.role_numbers
    energy = agg.node_energy
    assert roles is not None and energy is not None, \
        "aggregate() always fills the per-node vectors"
    if roles.std() > 0 and energy.std() > 0:
        correlation = float(np.corrcoef(roles, energy)[0, 1])
    else:
        correlation = float("nan")
    return Fig9Panel(
        scheme=scheme, rate=rate, roles=roles, energy=energy,
        max_role=float(roles.max()), mean_role=float(roles.mean()),
        role_variance=sample_variance(roles.tolist()),
        energy_variance=sample_variance(energy.tolist()),
        correlation=correlation,
    )


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[SweepKey, int], Job]:
    """The three schemes at both focus rates, mobile scenario."""
    return cell_jobs(scale, [(scheme, rate, True)
                             for rate in (scale.low_rate, scale.high_rate)
                             for scheme in SCHEMES], seed)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[SweepKey, int], Any]) -> Fig9Result:
    """The six panels (3 schemes x 2 rates) from :func:`jobs`' runs."""
    cells = aggregate_cells(results)
    rates = (scale.low_rate, scale.high_rate)
    panels = {(scheme, rate): _make_panel(scheme, rate,
                                          cells[(scheme, rate, True)])
              for scheme in SCHEMES for rate in rates}
    return Fig9Result(scale.name, rates, panels)


def verdicts(result: Fig9Result) -> List[Verdict]:
    """High-rate balance: flat 802.11, Rcast's energy and roles vs ODPM's."""
    base, odpm, rcast = (result.panels[(s, result.rates[1])] for s in SCHEMES)
    return [
        check("80211_flat", "802.11: every node burns the same energy",
              base.energy_variance, "<=", 1.0),
        check("energy_balance", "Rcast balances energy far better than ODPM "
              "at high load", rcast.energy_variance, "<",
              odpm.energy_variance),
        check("role_spread", "forwarding responsibility is no more "
              "concentrated under Rcast", rcast.role_variance, "<=",
              odpm.role_variance * 1.5),
        check("scatter_complete", "the scatter has one point per node",
              len(rcast.scatter_points()), "==", rcast.roles.shape[0]),
    ]


def format_result(result: Fig9Result) -> str:
    """Summary table per panel (the quantities the paper reads off)."""
    rows = []
    for (scheme, rate), p in sorted(result.panels.items(),
                                    key=lambda kv: (kv[0][1], kv[0][0])):
        rows.append([
            scheme, rate, p.max_role, p.mean_role, p.role_variance,
            p.energy_variance,
            "n/a" if np.isnan(p.correlation) else f"{p.correlation:.2f}",
        ])
    table = format_table(
        ["scheme", "rate", "max role", "mean role", "role var",
         "energy var", "corr(role,E)"],
        rows,
        title="Fig.9: role number vs energy, mobile scenario",
    )
    odpm_hi = result.panels[("odpm", result.rates[1])]
    rcast_hi = result.panels[("rcast", result.rates[1])]
    note = (
        f"high-rate max role: odpm={odpm_hi.max_role:.0f} "
        f"rcast={rcast_hi.max_role:.0f} "
        "(paper: ~50 vs ~30 -> rcast balances forwarding load)"
    )
    return table + "\n" + note


__all__ = ["Fig9Panel", "Fig9Result", "jobs", "fold", "verdicts",
           "format_result", "SCHEMES"]
