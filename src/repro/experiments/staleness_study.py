"""Extension experiment: the stale-route problem (paper Section 2.1.2).

The paper claims "it is unconditional overhearing that dramatically
aggravates the [stale route] problem": overheard alternative routes pile
up unvalidated in many caches, outliving the links they contain.  This
experiment runs the overhearing spectrum in the same mobile scenario and
audits every route cache against ground-truth connectivity at the end of
the run.

Expected shape: unconditional overhearing (``psm``) holds the most cached
paths and the highest stale fraction; Rcast holds a moderate set with a
lower stale fraction; no-overhearing holds the fewest.

Each scheme's audit, and the PDR reported next to it, is one run on the
raw base seed, whatever the scale's repetition count: a network none of
the other experiments' replications simulates (those run on seeds
derived from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.analysis.staleness import StalenessReport, audit_staleness
from repro.experiments.parallel import Job
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table
from repro.network import SimulationConfig, build_network

SCHEMES = ("psm", "rcast", "psm-nooh")


def _audit_scheme(
    config: SimulationConfig,
) -> Tuple[StalenessReport, float]:
    """Run one scheme's network and audit its caches (worker entry point)."""
    network = build_network(config)
    metrics = network.run()
    return audit_staleness(network), metrics.pdr


@dataclass
class StalenessStudyResult:
    """Staleness audits per scheme (mobile scenario)."""

    scale_name: str
    rate: float
    reports: Dict[str, StalenessReport]
    pdr: Dict[str, float]


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[str, int], Job]:
    """One audited run per scheme on the raw ``seed`` (mobile, low rate)."""
    return {(scheme, 0): (_audit_scheme,
                          make_config(scale, scheme, scale.low_rate,
                                      mobile=True, seed=seed))
            for scheme in SCHEMES}


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[str, int], Any]) -> StalenessStudyResult:
    """The audits and PDRs per scheme."""
    reports: Dict[str, StalenessReport] = {}
    pdr: Dict[str, float] = {}
    for scheme in SCHEMES:
        reports[scheme], pdr[scheme] = results[(scheme, 0)]
    return StalenessStudyResult(scale.name, scale.low_rate, reports, pdr)


def verdicts(result: StalenessStudyResult) -> List[Verdict]:
    """Unconditional overhearing leaves the staler caches.

    Long mobile runs fill every cache to capacity, so entry *counts*
    equalize; the paper's claim shows up in the freshness of their contents.
    """
    psm, rcast = result.reports["psm"], result.reports["rcast"]
    return [check("stale_fraction", "PSM's caches hold a larger stale "
                  "fraction", psm.stale_fraction, ">", rcast.stale_fraction),
            check("stale_entries", "PSM's caches hold more stale paths",
                  psm.stale_entries, ">", rcast.stale_entries),
            check("rcast_pdr", "fresher caches route at least as well",
                  result.pdr["rcast"], ">=", result.pdr["psm"] - 0.01)]


def format_result(result: StalenessStudyResult) -> str:
    """Cached-path counts and stale fractions per scheme."""
    rows = []
    for scheme in SCHEMES:
        report = result.reports[scheme]
        rows.append([
            scheme, report.total_entries, report.stale_entries,
            report.stale_fraction * 100.0,
            report.stale_fraction_of("overhear") * 100.0,
            result.pdr[scheme] * 100.0,
        ])
    table = format_table(
        ["scheme", "cached paths", "stale", "stale [%]",
         "stale among overheard [%]", "PDR [%]"],
        rows,
        title=(f"Stale-route audit (mobile, rate={result.rate} pkt/s, "
               "end of run, vs ground-truth connectivity)"),
    )
    return table + (
        "\nPaper §2.1.2: unconditional overhearing seeds many caches with"
        "\nalternative routes that go stale unvalidated; Rcast keeps the"
        "\ncache population — and its rot — proportionally smaller."
    )


__all__ = ["StalenessStudyResult", "jobs", "fold", "verdicts",
           "format_result", "SCHEMES"]
