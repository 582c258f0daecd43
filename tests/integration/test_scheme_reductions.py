"""Scheme reductions: a scheme or knob at its neutral setting is its base.

Each relation runs two configurations of one scenario and requires the
same ``RunMetrics``: every field but the scheme's name and the engine's
event count, so a relation is about what the run reports, not how many
events it took.  A relation that holds pins that the schemes are
parameterizations of one code path, and that a draw on one RNG stream
(``rcast:{id}``) perturbs no other.  The mobility factor reduces only in a
static network: with moving nodes it is not 1.
"""

from dataclasses import replace

import pytest

from repro.core.factors import NeighborCountProbability
from repro.faults.plan import FaultPlan
from repro.network import SimulationConfig, run_simulation

#: 30 nodes, 800 x 300 m, 40 s, 5 CBR flows at 2 pkt/s.
SCENARIO = dict(num_nodes=30, arena_w=800.0, arena_h=300.0, sim_time=40.0,
                num_connections=5, packet_rate=2.0)


def outcome(config):
    metrics = run_simulation(config).to_dict()
    del metrics["scheme"], metrics["events_processed"]
    return metrics


def p_r_one(monkeypatch, config):
    """``rcast`` overhearing every advertisement (P_R = 1) is ``psm``."""
    monkeypatch.setattr(NeighborCountProbability, "__call__",
                        lambda self, announcement: 1.0)
    return replace(config, scheme="rcast"), replace(config, scheme="psm")


def odpm_without_keepalives(monkeypatch, config):
    """``odpm`` whose keep-alives never arm is ``psm-nooh``."""
    monkeypatch.setattr("repro.mac.odpm.ODPM_RREP_TIMEOUT_S", 0.0)
    monkeypatch.setattr("repro.mac.odpm.ODPM_DATA_TIMEOUT_S", 0.0)
    return replace(config, scheme="odpm"), replace(config, scheme="psm-nooh")


def static_mobility_factor(monkeypatch, config):
    """With no link changes the mobility factor is 1."""
    static = replace(config, mobility="static")
    return replace(static, rcast_factors=("mobility",)), static


def battery_factor_without_battery(monkeypatch, config):
    """Without a battery the remaining fraction, and the factor, is 1."""
    return replace(config, rcast_factors=("battery",)), config


def empty_fault_plan(monkeypatch, config):
    """An empty fault plan injects nothing."""
    return replace(config, faults=FaultPlan()), config


RELATIONS = (p_r_one, odpm_without_keepalives, static_mobility_factor,
             battery_factor_without_battery, empty_fault_plan)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("relation", RELATIONS,
                         ids=lambda relation: relation.__name__)
def test_reduces_to_base(monkeypatch, relation, seed):
    config = SimulationConfig(scheme="rcast", seed=seed, **SCENARIO)
    variant, base = relation(monkeypatch, config)
    assert outcome(variant) == outcome(base)
