"""Property tests for the adaptive overhearing policies.

Three invariants the subsystem promises:

* an adaptive run is bit-identical serially and under the process pool,
  faults included — the policies draw only from their per-node derived
  streams and update only at epoch boundaries, so worker scheduling
  cannot reorder anything observable;
* the measured-degree estimator is a pure function of its call sequence,
  and within one measurement window the *order* announcements arrive in
  is irrelevant (the window folds a distinct-sender set);
* a fixed-policy run is inert: no adaptive trace records, no
  ``adaptive:<node>`` RNG streams, no adaptive metrics block.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ADAPTIVE_DEGREE_WINDOW_EPOCHS
from repro.core.adaptive import ADAPTIVE_POLICIES, MeasuredDegreePolicy
from repro.experiments.parallel import run_grid
from repro.faults.plan import FaultPlan, NodeCrash, PacketLoss
from repro.network import build_network, run_simulation
from repro.sim.trace import TraceLog
from tests.conftest import line_config

N_NODES = 4
SIM_TIME = 10.0


def adaptive_config(policy: str, seed: int, plan=None):
    return line_config("rcast", n=N_NODES, sim_time=SIM_TIME, seed=seed,
                       num_connections=1, packet_rate=1.0,
                       faults=plan, overhearing_policy=policy)


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**31),
    policy=st.sampled_from(ADAPTIVE_POLICIES),
    rate=st.floats(min_value=0.05, max_value=0.3, allow_nan=False),
    crash_at=st.floats(min_value=1.0, max_value=6.0, allow_nan=False),
)
def test_adaptive_identical_serial_and_parallel(seed, policy, rate, crash_at):
    plan = FaultPlan((
        NodeCrash(node=1, at=crash_at, recover_at=crash_at + 2.0),
        PacketLoss(rate=rate),
    ))
    configs = {"cell": adaptive_config(policy, seed, plan)}
    serial = run_grid(configs, repetitions=2, workers=None)["cell"]
    pooled = run_grid(configs, repetitions=2, workers=2)["cell"]
    # to_dict() includes the adaptive summary block, so estimator state,
    # controller multipliers and bandit histograms are all compared.
    assert [m.to_dict() for m in serial] == [m.to_dict() for m in pooled]


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**31),
    policy=st.sampled_from(ADAPTIVE_POLICIES),
)
def test_adaptive_run_is_reproducible(seed, policy):
    config = adaptive_config(policy, seed)

    def one_run():
        trace = TraceLog()
        metrics = run_simulation(config, trace=trace)
        return ([r.to_json() for r in trace], metrics.to_dict())

    assert one_run() == one_run()


# --- measured-degree estimator purity --------------------------------

#: window -> list of announcing senders (possibly repeating)
_windows = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), max_size=12),
    min_size=1, max_size=8,
)


def _state(policy: MeasuredDegreePolicy):
    """Everything the estimator carries across epochs."""
    return (policy.estimate, policy.warm, policy._active_windows,
            policy._epochs, policy._window_senders)


def _replay(windows, order_seed=None) -> MeasuredDegreePolicy:
    """Feed ``windows`` of announcements; optionally shuffle each window."""
    policy = MeasuredDegreePolicy()
    shuffler = random.Random(order_seed) if order_seed is not None else None
    now = 0.0
    for senders in windows:
        senders = list(senders)
        if shuffler is not None:
            shuffler.shuffle(senders)
        for sender in senders:
            policy.on_announcement_heard(sender)
        for _ in range(ADAPTIVE_DEGREE_WINDOW_EPOCHS):
            now += 0.25
            policy.on_epoch(now)
    return policy


@settings(max_examples=50, deadline=None)
@given(windows=_windows)
def test_estimator_is_pure_function_of_sequence(windows):
    assert _state(_replay(windows)) == _state(_replay(windows))


@settings(max_examples=50, deadline=None)
@given(windows=_windows, order_seed=st.integers(min_value=0, max_value=999))
def test_estimator_invariant_to_within_window_order(windows, order_seed):
    # The window folds a *set* of distinct senders: permuting arrival
    # order inside a window must not move the estimate.
    assert (_state(_replay(windows))
            == _state(_replay(windows, order_seed=order_seed)))


# --- fixed-policy inertness ------------------------------------------

def test_fixed_run_is_inert():
    trace = TraceLog()
    config = adaptive_config("fixed", seed=5)
    network = build_network(config, trace)
    metrics = network.run()
    assert [r for r in trace if r.category == "adaptive"] == []
    assert [n for n in network.rngs.streams() if n.startswith("adaptive")] == []
    assert all(node.rcast.adaptive is None for node in network.nodes)
    assert metrics.adaptive is None
    assert "adaptive" not in metrics.to_dict()
