"""Extension experiment: SPAN vs Rcast across network density.

The paper's related-work critique of SPAN (Section 2.2.2): "it usually
results in more AM nodes than necessary and degenerates to [an] all
AM-node situation when the network is relatively sparse".  This experiment
measures exactly that: the same node count spread over wider arenas
(sparser networks), comparing SPAN's coordinator backbone against Rcast
and ODPM on energy and the fraction of always-on nodes.

Energy and delivery are means over the scale's replications.  The
backbone size is not: it is one run of SPAN per density on the raw base
seed, a network none of the replications simulates (the replications run
on seeds derived from it).  So the backbone row and the energy rows
describe different draws of the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Tuple

from repro.experiments.parallel import Job, replications
from repro.experiments.runner import AggregateMetrics, aggregate, runs_by_cell
from repro.experiments.scenarios import ExperimentScale, make_config
from repro.experiments.verdict import Verdict, check
from repro.metrics.report import format_table
from repro.network import SimulationConfig, build_network

SCHEMES = ("span", "odpm", "rcast")

#: arena-width multipliers: 1.0 = the paper's density, larger = sparser
DENSITY_FACTORS = (1.0, 1.6, 2.2)


@dataclass
class SpanStudyResult:
    """Aggregates per (scheme, density factor) plus backbone sizes."""

    scale_name: str
    rate: float
    cells: Dict[Tuple[str, float], AggregateMetrics]
    #: mean SPAN backbone size per density factor (coordinators at end)
    backbone: Dict[float, float]
    num_nodes: int


def _measure_backbone(config: SimulationConfig) -> float:
    """Run one SPAN network and report its final coordinator count."""
    network = build_network(config)
    network.run()
    return float(network.span_election.backbone_size)


def _config(scale: ExperimentScale, scheme: str, factor: float,
            seed: int) -> SimulationConfig:
    return make_config(scale, scheme, scale.low_rate, mobile=False,
                       seed=seed, arena_w=scale.arena_w * factor)


def jobs(scale: ExperimentScale,
         seed: int = 1) -> Dict[Tuple[Hashable, int], Job]:
    """The density sweep (static scenario, low rate): every scheme's
    replications, plus one backbone count per density on the raw
    ``seed``."""
    table: Dict[Tuple[Hashable, int], Job] = dict(replications(
        {(scheme, factor): _config(scale, scheme, factor, seed)
         for factor in DENSITY_FACTORS for scheme in SCHEMES},
        scale.repetitions))
    for factor in DENSITY_FACTORS:
        table[(("backbone", factor), 0)] = (
            _measure_backbone, _config(scale, "span", factor, seed))
    return table


def fold(scale: ExperimentScale,
         results: Mapping[Tuple[Hashable, int], Any]) -> SpanStudyResult:
    """Aggregates per (scheme, density) and the backbone per density."""
    runs = runs_by_cell(results)
    backbone = {factor: runs.pop(("backbone", factor))[0]
                for factor in DENSITY_FACTORS}
    cells: Dict[Tuple[str, float], AggregateMetrics] = {
        key: aggregate(cell_runs) for key, cell_runs in runs.items()}
    return SpanStudyResult(scale.name, scale.low_rate, cells, backbone,
                           scale.num_nodes)


def verdicts(result: SpanStudyResult) -> List[Verdict]:
    """SPAN's backbone grows as the network sparsens; both keep working."""
    factors = sorted(DENSITY_FACTORS)
    densest, sparsest = factors[0], factors[-1]
    return [check("backbone_grows", "SPAN's backbone grows as the network "
                  "sparsens", result.backbone[sparsest], ">=",
                  result.backbone[densest])] + [
        check(f"pdr[{scheme} x{factor}]", "the scheme keeps delivering "
              "(PDR > 75%)", result.cells[(scheme, factor)].pdr, ">", 0.75)
        for factor in factors for scheme in ("span", "rcast")] + [
        # SPAN's always-on backbone makes it at least as expensive.
        check("span_cost_when_sparse", "sparsest: SPAN uses at least 0.9x "
              "Rcast's energy", result.cells[("span", sparsest)].total_energy,
              ">=", 0.9 * result.cells[("rcast", sparsest)].total_energy)]


def format_result(result: SpanStudyResult) -> str:
    """Energy table across densities plus the backbone-size row."""
    rows = []
    for factor in DENSITY_FACTORS:
        row = [f"x{factor}"]
        for scheme in SCHEMES:
            row.append(result.cells[(scheme, factor)].total_energy)
        row.append(f"{result.backbone[factor]:.0f}/{result.num_nodes}")
        rows.append(row)
    table = format_table(
        ["arena width"] + [f"{s} E [J]" for s in SCHEMES]
        + ["SPAN backbone"],
        rows,
        title=(f"SPAN vs Rcast across density (static, "
               f"rate={result.rate} pkt/s; wider arena = sparser)"),
    )
    return table + (
        "\nPaper's critique: as the network sparsens, SPAN's backbone "
        "swells toward all-AM while Rcast's cost stays density-insensitive."
    )


__all__ = ["SpanStudyResult", "jobs", "fold", "verdicts", "format_result",
           "SCHEMES", "DENSITY_FACTORS"]
