"""Extension experiment: the paper's footnote 1 — DSR vs AODV under PSM.

The paper argues Rcast matters because DSR *depends* on overhearing, and
contrasts AODV, which forbids overhearing and expires routes by timeout:
"this necessitates more RREQ messages.  According to Das et al., 90% of
the routing overhead comes from RREQ."

This experiment runs both protocols in the same mobile scenario and
measures:

* the RREQ share of control-packet transmissions (paper: ~90% for AODV;
  DSR's is lower because caches and cache replies quench floods), and
* how much energy Rcast saves *per protocol* relative to unconditional
  PSM — for DSR the saving is the paper's headline; for AODV, with no
  overhearing to randomize, Rcast degenerates to near-no-overhearing and
  the PSM baseline itself is already cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate, runs_by_cell
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table

PROTOCOLS = ("dsr", "aodv")
SCHEMES = ("psm", "rcast")


@dataclass
class AodvStudyResult:
    """Aggregates plus per-cell transmission composition."""

    scale_name: str
    rate: float
    cells: Dict[Tuple[str, str], AggregateMetrics]       # (protocol, scheme)
    transmissions: Dict[Tuple[str, str], Dict[str, int]]

    def rreq_share_of(self, protocol: str, scheme: str) -> float:
        """Fraction of one cell's control transmissions that were RREQs."""
        tx = self.transmissions[(protocol, scheme)]
        control = sum(tx.get(k, 0) for k in ("rreq", "rrep", "rerr"))
        return tx.get("rreq", 0) / control if control else 0.0


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[Tuple[str, str], int], Job]:
    """The protocol x scheme grid (mobile scenario, low rate)."""
    return replications({
        (protocol, scheme): make_config(scale, scheme, scale.low_rate,
                                        mobile=True, seed=seed,
                                        routing=protocol)
        for protocol in PROTOCOLS for scheme in SCHEMES
    }, scale.repetitions)


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[Tuple[str, str], int], Any]
         ) -> AodvStudyResult:
    """Aggregates and summed transmission counts per (protocol, scheme)."""
    cells: Dict[Tuple[str, str], AggregateMetrics] = {}
    tx: Dict[Tuple[str, str], Dict[str, int]] = {}
    for key, runs in runs_by_cell(results).items():
        cells[key] = aggregate(runs)
        totals: Dict[str, int] = {}
        for metrics in runs:
            for kind, count in metrics.transmissions.items():
                totals[kind] = totals.get(kind, 0) + count
        tx[key] = totals
    return AodvStudyResult(scale.name, scale.low_rate, cells, tx)


def verdicts(result: AodvStudyResult) -> List[Verdict]:
    """RREQ dominates AODV's overhead; both protocols work under PSM."""
    aodv, dsr = (result.rreq_share_of(p, "rcast") for p in ("aodv", "dsr"))
    return [check("aodv_rreq_share", "RREQs dominate AODV's control "
                  "traffic", aodv, ">", 0.6),
            check("aodv_above_dsr", "AODV's RREQ share is above DSR's",
                  aodv, ">", dsr)] + [
        check(f"pdr[{protocol}/{scheme}]", "the protocol stays functional "
              "under PSM (PDR > 80%)", agg.pdr, ">", 0.80)
        for (protocol, scheme), agg in result.cells.items()]


def format_result(result: AodvStudyResult) -> str:
    """Comparison table plus the footnote's headline numbers."""
    rows = []
    for (protocol, scheme), agg in sorted(result.cells.items()):
        rows.append([
            protocol, scheme, agg.total_energy, agg.pdr * 100.0,
            agg.normalized_overhead,
            f"{result.rreq_share_of(protocol, scheme) * 100:.0f}%",
        ])
    table = format_table(
        ["protocol", "scheme", "energy [J]", "PDR [%]", "overhead",
         "RREQ share"],
        rows,
        title=(f"Footnote 1: DSR vs AODV under PSM "
               f"(mobile, rate={result.rate} pkt/s)"),
    )
    aodv_share = result.rreq_share_of("aodv", "rcast")
    dsr_share = result.rreq_share_of("dsr", "rcast")
    note = (
        f"RREQ share of control traffic: AODV {aodv_share * 100:.0f}% "
        f"vs DSR {dsr_share * 100:.0f}% "
        "(paper, citing Das et al.: ~90% for AODV)"
    )
    return table + "\n" + note


__all__ = ["AodvStudyResult", "jobs", "fold", "verdicts", "format_result",
           "PROTOCOLS", "SCHEMES"]
