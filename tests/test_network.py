"""Tests for SimulationConfig validation and network assembly."""

import dataclasses
import math
import warnings

import pytest

from repro.core.policy import (
    NoOverhearing,
    RcastPolicy,
    UnconditionalOverhearing,
)
from repro.errors import ConfigurationError
from repro.mac.base import AlwaysOnMac
from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import AlwaysPs
from repro.mac.psm import PsmMac
from repro.network import SCHEMES, SimulationConfig, build_network

from tests.conftest import line_config


def small(scheme="rcast", **overrides):
    params = dict(
        scheme=scheme, num_nodes=10, arena_w=500.0, arena_h=300.0,
        mobility="static", num_connections=2, packet_rate=0.5,
        sim_time=5.0, seed=1,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError):
        small(scheme="wibble")


def test_bad_sim_time_rejected():
    with pytest.raises(ConfigurationError):
        small(sim_time=0.0)


def test_bad_rate_rejected():
    with pytest.raises(ConfigurationError):
        small(packet_rate=0.0)


@pytest.mark.parametrize("overrides", [
    # a non-finite horizon or rate never ends the run
    dict(sim_time=float("nan")),
    dict(sim_time=float("inf")),
    dict(packet_rate=float("inf")),
    # a NaN rate drove the energy meter backwards
    dict(packet_rate=float("nan")),
    # an empty queue underflowed on the first dequeue
    dict(queue_capacity=0),
    dict(queue_capacity=-1),
    # a non-positive bitrate escaped as ChannelError from build_network
    dict(bitrate=0.0),
    dict(bitrate=-1e6),
    dict(bitrate=float("nan")),
    # a zero battery divided by zero in the battery factor
    dict(battery_joules=0.0, rcast_factors=("sender", "battery")),
    # a negative battery read as full forever
    dict(battery_joules=-5.0),
    dict(battery_joules=float("nan")),
    # an unknown mobility model got past the config into build_network
    dict(mobility="teleport"),
    dict(mobility="random_direction"),
], ids=lambda overrides: ",".join(
    f"{k}={'+'.join(v) if isinstance(v, tuple) else v}"
    for k, v in overrides.items()))
def test_degenerate_config_fails_fast(overrides):
    with pytest.raises(ConfigurationError):
        small(**overrides)


@pytest.mark.parametrize("overrides", [
    dict(tx_range=float("nan")),
    dict(tx_range=float("inf")),
    dict(tx_range=0.0),
    dict(tx_range=-1.0),
    dict(cs_range=float("nan")),
    dict(cs_range=float("inf")),
], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
def test_bad_radio_range_rejected(overrides):
    """A NaN range used to run to pdr 0 (and a NaN carrier-sense range
    warned from the grid-cell cast) instead of failing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="_range"):
            SimulationConfig(num_nodes=5, num_connections=1, sim_time=3.0,
                             **overrides)


#: The numeric SimulationConfig fields, read from the dataclass so that a
#: new field without a row in the validation table fails the walk below.
NUMERIC_FIELDS = [f.name for f in dataclasses.fields(SimulationConfig)
                  if f.type in ("int", "float", "Optional[float]")]

#: Walk values that are valid for their field: each must run.
WALK_VALID = {("pause_time", 0), ("clock_jitter", 0), ("num_connections", 0),
              ("seed", 0), ("seed", -1)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, -1],
                         ids=str)
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_numeric_field_walk(field, value):
    """Every numeric field x {nan, +-inf, 0, -1}: the constructor raises
    ConfigurationError, or the run finishes without a warning.

    Before the single validation boundary, ``num_nodes=nan`` raised
    TypeError from ``range``, ``packet_bytes=inf`` OverflowError, and
    ``arena_w=nan`` or ``beacon_interval=inf`` ran silently to pdr 0.
    """
    params = dict(num_nodes=6, sim_time=6.0, arena_w=400.0, arena_h=300.0,
                  num_connections=2, packet_rate=1.0, mobility="waypoint",
                  max_speed=5.0, pause_time=1.0, seed=1)
    params[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (field, value) not in WALK_VALID:
            with pytest.raises(ConfigurationError, match=field):
                SimulationConfig(**params)
            return
        metrics = build_network(SimulationConfig(**params)).run()
    assert metrics.sim_time == 6.0


@pytest.mark.parametrize("period", [math.nan, -1.0])
def test_bad_observe_period_rejected(period):
    """A NaN period never reached the horizon, so the run never ended."""
    network = build_network(line_config("rcast", n=2, sim_time=1.0))
    with pytest.raises(ConfigurationError, match="observe_period"):
        network.run(observer=lambda net: None, observe_period=period)
    assert network.sim.processed_events == 0  # no node was started


def test_unknown_rcast_factor_rejected():
    with pytest.raises(ConfigurationError):
        small(rcast_factors=("bogus",))


def test_unknown_overhearing_policy_rejected():
    with pytest.raises(ConfigurationError, match="overhearing"):
        small(overhearing_policy="oracle")


def test_unknown_mobility_rejected():
    with pytest.raises(ConfigurationError):
        build_network(small(mobility="teleport"))


def test_positions_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        build_network(small(positions=((0.0, 0.0),)))


def test_ieee80211_uses_always_on_mac():
    network = build_network(small("ieee80211"))
    assert all(isinstance(n.mac, AlwaysOnMac) for n in network.nodes)
    assert all(n.rcast is None for n in network.nodes)


def test_psm_scheme_wiring():
    network = build_network(small("psm"))
    for node in network.nodes:
        assert isinstance(node.mac, PsmMac)
        assert isinstance(node.mac.power, AlwaysPs)
        assert isinstance(node.rcast.sender_policy, UnconditionalOverhearing)
        assert not node.mac.tap_in_am


def test_psm_nooh_scheme_wiring():
    network = build_network(small("psm-nooh"))
    for node in network.nodes:
        assert isinstance(node.rcast.sender_policy, NoOverhearing)


def test_odpm_scheme_wiring():
    network = build_network(small("odpm"))
    for node in network.nodes:
        assert isinstance(node.mac.power, OdpmPowerManager)
        assert node.mac.tap_in_am
        assert isinstance(node.rcast.sender_policy, NoOverhearing)


def test_rcast_scheme_wiring():
    network = build_network(small("rcast"))
    for node in network.nodes:
        assert isinstance(node.rcast.sender_policy, RcastPolicy)
        assert isinstance(node.mac.power, AlwaysPs)


def test_rcast_factors_wiring():
    network = build_network(small("rcast", rcast_factors=("sender", "mobility")))
    for node in network.nodes:
        factors = node.rcast.decider._probability_fn._factors
        assert [f.name for f in factors] == ["sender-recency", "mobility"]


def test_traffic_none_builds_no_sources():
    network = build_network(small(num_connections=0))
    assert all(not n.sources for n in network.nodes)


def test_traffic_sources_match_connections():
    network = build_network(small(num_connections=3))
    total = sum(len(n.sources) for n in network.nodes)
    assert total == 3


def test_run_twice_rejected():
    network = build_network(line_config("rcast", n=2, sim_time=1.0))
    network.run()
    with pytest.raises(ConfigurationError):
        network.run()


def test_all_schemes_buildable():
    for scheme in SCHEMES:
        network = build_network(small(scheme))
        assert len(network.nodes) == 10


def test_aodv_routing_selectable():
    from repro.routing.aodv.protocol import AodvProtocol

    network = build_network(small("rcast", routing="aodv"))
    assert all(isinstance(n.dsr, AodvProtocol) for n in network.nodes)
    metrics = network.run()
    assert metrics.data_sent > 0


def test_unknown_routing_rejected():
    with pytest.raises(ConfigurationError):
        small(routing="ospf")


def test_aodv_end_to_end_delivery():
    from repro.network import run_simulation

    config = small("odpm", routing="aodv", sim_time=20.0, packet_rate=0.5)
    metrics = run_simulation(config)
    assert metrics.pdr > 0.7


@pytest.mark.parametrize("scheme, joules", [
    # always on: 1.15 W x 1125 s
    ("ieee80211", 1293.75),
    # awake for the 0.05 s ATIM window of every 0.25 s beacon interval:
    # 1.15 W x 225 s + 0.045 W x 900 s
    ("psm", 299.25),
    ("psm-nooh", 299.25),
    ("odpm", 299.25),
    ("rcast", 299.25),
])
def test_idle_run_meets_the_papers_closed_form_energy(scheme, joules):
    """With no traffic every node spends exactly the paper's anchor."""
    metrics = build_network(small(scheme, num_nodes=3, num_connections=0,
                                  sim_time=1125.0)).run()
    assert metrics.node_energy.tolist() == pytest.approx([joules] * 3,
                                                         rel=1e-9)


@pytest.mark.parametrize("routing", ["dsr", "aodv"])
def test_interface_queue_overflow_is_a_terminal_state(routing):
    """A one-frame interface queue under a saturating rate drops at the
    queue, and every sent packet still ends in exactly one state."""
    metrics = build_network(small("psm", routing=routing, queue_capacity=1,
                                  num_connections=3, packet_rate=20.0)).run()
    assert metrics.drop_reasons["ifq_overflow"] > 0
    assert metrics.data_sent == (metrics.data_delivered
                                 + sum(metrics.drop_reasons.values()))


#: Peak-heap ceiling for the smoke workload below: 3 MiB x 1.5.  The run
#: peaks near 1.07 MB; peak heap on a deterministic workload is
#: machine-stable, so a breach means an unbounded buffer crept back into
#: the hot path, not a slow machine.
SMOKE_HEAP_CEILING_BYTES = 4_718_592


def test_smoke_workload_peak_heap_under_ceiling():
    import tracemalloc

    from repro.obs.metrics import TimelineRecorder

    # The fig7 rcast cell at smoke size, mobile, observed at 1 Hz by the
    # same timeline `rcast-repro run --sample-interval` wires up.
    network = build_network(SimulationConfig(
        scheme="rcast", num_nodes=30, packet_rate=2.0, sim_time=30.0,
        num_connections=6, mobility="waypoint", max_speed=2.0,
        pause_time=0.0, seed=1,
    ))
    recorder = TimelineRecorder(period=1.0)
    tracemalloc.start()
    try:
        network.run(observer=recorder.observe, observe_period=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(recorder) == 30
    assert peak < SMOKE_HEAP_CEILING_BYTES, (
        f"peak heap {peak:,} B breaches the {SMOKE_HEAP_CEILING_BYTES:,} B "
        "ceiling"
    )


@pytest.mark.parametrize("scheme,routing,faults", [
    ("rcast", "dsr", None),
    ("ieee80211", "dsr", None),
    ("rcast", "aodv", None),
    ("odpm", "dsr", {"version": 1, "events": [
        {"kind": "node-crash", "node": 1, "at": 4.0, "recover_at": 9.0}]}),
])
def test_run_leaves_no_cyclic_garbage(scheme, routing, faults):
    """Frames, transmissions and discovery states die by refcount.

    A reference cycle in per-frame or per-discovery state (a transmission
    listing its overlaps, a discovery timer whose args hold the discovery)
    leaves each object for the cyclic collector.  Under ``DEBUG_SAVEALL``
    everything that collector reclaims lands in ``gc.garbage``.
    """
    import gc

    config = SimulationConfig(
        scheme=scheme, routing=routing, num_nodes=20, arena_w=600.0,
        arena_h=300.0, packet_rate=2.0, sim_time=15.0, num_connections=4,
        mobility="waypoint", max_speed=2.0, pause_time=0.0, seed=1,
        faults=faults,
    )
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        network = build_network(config)
        network.run()
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert network.sim.now > 0
    assert garbage == []


def test_run_restores_the_callers_gc_state():
    """``run`` switches the cyclic collector off only while it runs.

    It hands back whatever state it was given: on after a normal run and
    after an observer raises, still off when the caller had turned the
    collector off itself.
    """
    import gc

    seen = []

    def note(network):
        seen.append(gc.isenabled())

    def fail(network):
        raise RuntimeError("observer failed")

    assert gc.isenabled()
    build_network(small()).run(observer=note)
    assert gc.isenabled()
    assert seen and not any(seen)

    with pytest.raises(RuntimeError, match="observer failed"):
        build_network(small()).run(observer=fail)
    assert gc.isenabled()

    gc.disable()
    try:
        build_network(small()).run()
        assert not gc.isenabled()
    finally:
        gc.enable()
