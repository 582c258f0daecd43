"""Property tests for the fault-injection subsystem.

Three invariants the subsystem promises:

* a (config, seed, plan) triple is bit-identical serially and under the
  process pool — faults don't break the parallel engine's determinism;
* the empty plan is a *byte-level* no-op: trace stream and metrics dict
  equal a run that never heard of faults;
* a crashed node is silent — it emits no protocol trace records strictly
  between its crash and its recovery.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import run_grid
from repro.faults.injector import FAULT_CATEGORY
from repro.faults.plan import (
    EMPTY_PLAN,
    FaultPlan,
    NodeCrash,
    PacketLoss,
)
from repro.network import run_simulation
from repro.sim.trace import TraceLog
from tests.conftest import line_config

#: Small but protocol-complete scenario: 3-hop line, one CBR flow.
N_NODES = 4
SIM_TIME = 10.0


def base_config(scheme: str, seed: int, plan=None):
    return line_config(scheme, n=N_NODES, sim_time=SIM_TIME, seed=seed,
                       num_connections=1, packet_rate=1.0,
                       faults=plan)


def trace_bytes(config) -> bytes:
    trace = TraceLog()
    run_simulation(config, trace=trace)
    return "".join(r.to_json() + "\n" for r in trace).encode()


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**31),
    rate=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    crash_at=st.floats(min_value=1.0, max_value=6.0, allow_nan=False),
)
def test_same_plan_identical_serial_and_parallel(seed, rate, crash_at):
    plan = FaultPlan((
        NodeCrash(node=1, at=crash_at, recover_at=crash_at + 2.0),
        PacketLoss(rate=rate),
    ))
    configs = {"cell": base_config("rcast", seed, plan)}
    serial = run_grid(configs, repetitions=2, workers=None)["cell"]
    pooled = run_grid(configs, repetitions=2, workers=2)["cell"]
    assert [m.to_dict() for m in serial] == [m.to_dict() for m in pooled]
    assert [m.fault_counts for m in serial] == [m.fault_counts for m in pooled]


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**31),
    scheme=st.sampled_from(["ieee80211", "psm", "rcast"]),
)
def test_empty_plan_is_byte_identical_to_no_plan(seed, scheme):
    baseline = base_config(scheme, seed, plan=None)
    empty = replace(baseline, faults=EMPTY_PLAN)
    assert trace_bytes(baseline) == trace_bytes(empty)
    assert (run_simulation(baseline).to_dict()
            == run_simulation(empty).to_dict())


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**31),
    node=st.integers(min_value=0, max_value=N_NODES - 1),
    crash_at=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    downtime=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    scheme=st.sampled_from(["ieee80211", "psm", "rcast"]),
)
def test_crashed_node_is_silent_while_down(seed, node, crash_at, downtime,
                                           scheme):
    recover_at = crash_at + downtime
    plan = FaultPlan((NodeCrash(node=node, at=crash_at,
                                recover_at=recover_at),))
    trace = TraceLog()
    run_simulation(base_config(scheme, seed, plan), trace=trace)
    offending = [
        r for r in trace
        if r.node == node
        and r.category != FAULT_CATEGORY
        and crash_at < r.time < recover_at
    ]
    assert offending == [], (
        f"node {node} emitted {len(offending)} records while down; "
        f"first: {offending[0]}"
    )
