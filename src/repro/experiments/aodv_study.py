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
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import AggregateMetrics
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


def run(scale: ExperimentScale, seed: int = 1, progress: Optional[Callable[[str], None]] = None,
        workers: Optional[int] = None) -> AodvStudyResult:
    """Run the protocol x scheme grid (mobile scenario, low rate)."""
    from repro.experiments.parallel import run_grid
    from repro.experiments.runner import aggregate as aggregate_runs

    configs = {
        (protocol, scheme): make_config(scale, scheme, scale.low_rate,
                                        mobile=True, seed=seed,
                                        routing=protocol)
        for protocol in PROTOCOLS for scheme in SCHEMES
    }
    grid = run_grid(configs, scale.repetitions, workers=workers)
    cells: Dict[Tuple[str, str], AggregateMetrics] = {}
    tx: Dict[Tuple[str, str], Dict[str, int]] = {}
    for key, runs in grid.items():
        cells[key] = aggregate_runs(runs)
        totals: Dict[str, int] = {}
        for metrics in runs:
            for kind, count in metrics.transmissions.items():
                totals[kind] = totals.get(kind, 0) + count
        tx[key] = totals
        if progress is not None:
            progress(f"{key[0]}/{key[1]}: {cells[key].describe()}")
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


__all__ = ["AodvStudyResult", "run", "verdicts", "format_result", "PROTOCOLS",
           "SCHEMES"]
