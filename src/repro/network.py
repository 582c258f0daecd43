"""Network assembly: build a complete simulated MANET for one scheme.

:class:`SimulationConfig` captures everything about a run — scheme, arena,
mobility, traffic, protocol knobs, seed.  :func:`build_network` wires the
full stack (mobility -> position service -> channel -> radios -> MAC ->
DSR -> CBR sources) and :meth:`Network.run` executes it, returning the
:class:`~repro.metrics.collector.RunMetrics` the experiments consume.

Scheme matrix (paper Table 1 plus the naive baseline):

============  ==============  ===============  ============================
key           MAC             power manager    overhearing
============  ==============  ===============  ============================
`ieee80211`   AlwaysOnMac     (always awake)   everything (free)
`psm`         PsmMac          always PS        unconditional
`psm-nooh`    PsmMac          always PS        none
`odpm`        PsmMac          ODPM timers      AM nodes only
`rcast`       PsmMac          always PS        randomized (P_R = 1/n)
`span`        PsmMac          SPAN backbone    AM coordinators only
============  ==============  ===============  ============================
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro import constants
from repro.core.adaptive import (
    OVERHEARING_POLICIES,
    AdaptivePolicy,
    adaptive_run_summary,
    make_policy,
)
from repro.core.policy import (
    NoOverhearing,
    RcastPolicy,
    SenderPolicy,
    UnconditionalOverhearing,
)
from repro.core.rcast import RcastManager
from repro.errors import ConfigurationError, FieldRange, check_field
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mac.base import AlwaysOnMac, MacBase
from repro.mac.epoch import EpochScheduler
from repro.mac.frames import reset_frame_ids
from repro.mac.odpm import OdpmPowerManager
from repro.mac.power import AlwaysPs, PowerManager
from repro.mac.psm import PsmMac
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.mobility.base import Arena, MobilityModel
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.mobility.waypoint import RandomWaypoint
from repro.node import Node
from repro.phy.channel import Channel, reset_tx_ids
from repro.phy.energy import EnergyMeter
from repro.phy.radio import Radio
from repro.routing.agent import RoutingAgent
from repro.routing.dsr.protocol import DsrProtocol
from repro.routing.packets import reset_uid_counter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import NULL_TRACE, TraceSink
from repro.traffic.cbr import CbrSource
from repro.traffic.pairs import choose_connections

if TYPE_CHECKING:
    from repro.analysis.sanitizer import SanitizerReport
    from repro.mac.span import SpanElection

#: All supported scheme keys.
SCHEMES = ("ieee80211", "psm", "psm-nooh", "odpm", "rcast", "span")

#: Range of every numeric :class:`SimulationConfig` field, checked by
#: :func:`repro.errors.check_field`.
_FIELD_RANGES: Dict[str, FieldRange] = {
    "seed": FieldRange(-math.inf, integer=True),
    "sim_time": FieldRange(0.0),
    "num_nodes": FieldRange(1, lo_closed=True, integer=True),
    "arena_w": FieldRange(0.0),
    "arena_h": FieldRange(0.0),
    "tx_range": FieldRange(0.0),
    "cs_range": FieldRange(0.0),
    "bitrate": FieldRange(0.0),
    "max_speed": FieldRange(constants.WAYPOINT_MIN_SPEED_MPS, lo_closed=True),
    "pause_time": FieldRange(0.0, lo_closed=True),
    "beacon_interval": FieldRange(0.0),
    "atim_window": FieldRange(0.0),
    "queue_capacity": FieldRange(1, lo_closed=True, integer=True),
    "clock_jitter": FieldRange(0.0, lo_closed=True),
    "num_connections": FieldRange(0, lo_closed=True, integer=True),
    "packet_rate": FieldRange(0.0),
    "packet_bytes": FieldRange(1, lo_closed=True, integer=True),
    "battery_joules": FieldRange(0.0),  # None (unbounded) is not checked
}


@dataclass
class SimulationConfig:
    """Complete description of one simulation run."""

    scheme: str = "rcast"
    seed: int = 1
    sim_time: float = constants.SIM_TIME_S

    # Topology / PHY
    num_nodes: int = constants.NUM_NODES
    arena_w: float = constants.ARENA_W_M
    arena_h: float = constants.ARENA_H_M
    tx_range: float = constants.TX_RANGE_M
    cs_range: float = constants.CS_RANGE_M
    bitrate: float = constants.BITRATE_BPS

    # Mobility
    mobility: str = "waypoint"  # 'waypoint' | 'static'
    max_speed: float = constants.MAX_SPEED_MPS
    pause_time: float = 600.0
    #: explicit static coordinates (mobility='static' only); None = uniform
    positions: Optional[Tuple[Tuple[float, float], ...]] = None

    # MAC / PSM
    beacon_interval: float = constants.BEACON_INTERVAL_S
    atim_window: float = constants.ATIM_WINDOW_S
    queue_capacity: int = 64
    #: residual clock-sync error: each PSM node gets a uniform random clock
    #: offset in [0, clock_jitter) seconds (0 = the paper's perfect sync)
    clock_jitter: float = 0.0

    # Traffic (CBR; 0 connections = no traffic)
    num_connections: int = constants.NUM_CONNECTIONS
    packet_rate: float = 0.4
    packet_bytes: int = constants.PACKET_BYTES

    # Routing
    routing: str = "dsr"  # 'dsr' (paper) | 'aodv' (footnote-1 baseline)

    # Rcast options
    rcast_factors: Tuple[str, ...] = ()
    rreq_randomized: bool = False
    opportunistic_tap: bool = False
    #: receiver-side P_R policy: 'fixed' (the paper's 1/n) or one of the
    #: adaptive policies in :mod:`repro.core.adaptive` ('degree',
    #: 'energy', 'bandit').  Only schemes that advertise RANDOMIZED
    #: levels (rcast) consult P_R, but the per-epoch policy machinery
    #: runs on every PSM node when a non-fixed policy is selected.
    overhearing_policy: str = "fixed"

    # Energy
    battery_joules: Optional[float] = None

    # Fault injection
    #: deterministic fault plan for the run; ``None`` (or an empty plan)
    #: builds no injector at all — behaviour is byte-identical to a build
    #: that predates the fault subsystem (golden-trace enforced).  A plain
    #: dict (the plan's JSON form) is accepted and coerced; every node id
    #: the plan names must be below ``num_nodes``.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        """Check every field: the one boundary for outside input, so the
        layers :func:`build_network` wires trust their arguments."""
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose one of {SCHEMES}"
            )
        for name, row in _FIELD_RANGES.items():
            value = getattr(self, name)
            if not (value is None and name == "battery_joules"):
                check_field(name, value, row)
        if not self.tx_range <= self.cs_range:
            raise ConfigurationError(
                f"cs_range ({self.cs_range}) must be >= tx_range "
                f"({self.tx_range})")
        if not self.atim_window < self.beacon_interval:
            raise ConfigurationError(
                f"need atim_window < beacon_interval, got "
                f"{self.atim_window} / {self.beacon_interval}")
        if not self.clock_jitter < self.beacon_interval:
            raise ConfigurationError(
                "clock_jitter must be in [0, beacon_interval)")
        if self.num_connections > self.num_nodes:
            raise ConfigurationError(
                f"cannot pick {self.num_connections} distinct sources from "
                f"{self.num_nodes} nodes")
        if self.num_connections and self.num_nodes < 2:
            raise ConfigurationError("need at least two nodes for traffic")
        if self.positions is not None:
            if len(self.positions) != self.num_nodes:
                raise ConfigurationError(
                    f"{len(self.positions)} positions for "
                    f"{self.num_nodes} nodes")
            arena = Arena(self.arena_w, self.arena_h)
            for point in self.positions:
                if len(point) != 2 or not arena.contains(*point):
                    raise ConfigurationError(
                        f"position {point!r} is not an (x, y) point inside "
                        f"the {self.arena_w} x {self.arena_h} m arena")
        unknown = set(self.rcast_factors) - {"sender", "mobility", "battery"}
        if unknown:
            raise ConfigurationError(f"unknown rcast factors: {sorted(unknown)}")
        if self.mobility not in ("waypoint", "static"):
            raise ConfigurationError(
                f"unknown mobility model {self.mobility!r}"
            )
        if self.routing not in ("dsr", "aodv"):
            raise ConfigurationError(
                f"unknown routing protocol {self.routing!r}"
            )
        if self.overhearing_policy not in OVERHEARING_POLICIES:
            raise ConfigurationError(
                f"unknown overhearing policy {self.overhearing_policy!r}; "
                f"choose one of {OVERHEARING_POLICIES}"
            )
        if isinstance(self.faults, dict):
            self.faults = FaultPlan.from_dict(self.faults)
        if not isinstance(self.faults, (FaultPlan, type(None))):
            raise ConfigurationError(
                "faults must be a FaultPlan, a plan dict or None, got "
                f"{type(self.faults).__name__}")
        for node in self.faults.node_ids() if self.faults else ():
            if node >= self.num_nodes:
                raise ConfigurationError(
                    f"fault plan targets node {node} but the network has "
                    f"{self.num_nodes} nodes")


class Network:
    """A fully wired simulated MANET, ready to run."""

    def __init__(
        self,
        config: SimulationConfig,
        sim: Simulator,
        rngs: RngRegistry,
        positions: PositionService,
        channel: Channel,
        nodes: List[Node],
        metrics: MetricsCollector,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.config = config
        self.sim = sim
        self.rngs = rngs
        self.positions = positions
        self.channel = channel
        self.nodes = nodes
        self.metrics = metrics
        self.trace = trace
        self.span_election: Optional["SpanElection"] = None
        #: wired by :func:`build_network` when the config carries a
        #: non-empty fault plan; ``None`` otherwise
        self.faults: Optional[FaultInjector] = None
        #: filled by :meth:`run` when ``sanitize=True``; ``None`` otherwise
        self.sanitizer_report: Optional["SanitizerReport"] = None
        self._ran = False

    def run(
        self,
        observer: Optional[Callable[["Network"], None]] = None,
        observe_period: Optional[float] = None,
        sanitize: bool = False,
    ) -> RunMetrics:
        """Execute the configured run and return its metrics.

        When ``observer`` is given it is called with this network after
        every ``observe_period`` seconds of virtual time (default: one
        beacon interval), using the engine's restartable ``run()`` — this
        is how :class:`repro.obs.metrics.TimelineRecorder` samples
        per-node state without any hook inside the event loop.

        ``sanitize=True`` runs under the determinism sanitizer
        (:mod:`repro.analysis.sanitizer`): draw ledgers on every registry
        stream, a tie-key detector on the fire interceptor, and hot-path
        order canaries.  Metrics stay byte-identical; the report lands in
        :attr:`sanitizer_report`.

        The cyclic garbage collector is off while the run executes; the
        caller's setting is restored however the run ends.
        """
        if self._ran:
            raise ConfigurationError("Network.run() may only be called once")
        self._ran = True
        horizon = self.config.sim_time
        period = observe_period or self.config.beacon_interval
        # ``not period > 0`` also rejects NaN: ``min(nan, horizon)`` never
        # reaches the horizon, so the loop below would never end.
        if observer is not None and not period > 0:
            raise ConfigurationError("observe_period must be positive")
        sanitizer = None
        if sanitize:
            # Imported here: repro.analysis depends on the simulator
            # layers, so a module-level import would be circular.
            from repro.analysis.sanitizer import DeterminismSanitizer

            sanitizer = DeterminismSanitizer()
            sanitizer.attach(self)
        # The run leaves no cyclic garbage (frames, transmissions and
        # discovery states die by refcount), so collector passes inside it
        # reclaim nothing: they are triggered by the route caches and heaps
        # filling up.  Switch it off for the run, not for the build, and
        # hand the caller back the state it had.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for node in self.nodes:
                node.start()
            if observer is None:
                self.sim.run(until=horizon)
            else:
                t = 0.0
                while t < horizon:
                    t = min(t + period, horizon)
                    self.sim.run(until=t)
                    observer(self)
            for node in self.nodes:
                node.finalize()
        finally:
            if gc_was_enabled:
                gc.enable()
            if sanitizer is not None:
                self.sanitizer_report = sanitizer.detach()
        decisions = 0
        elections = 0
        for node in self.nodes:
            if node.rcast is not None:
                decisions += node.rcast.decider.decisions
                elections += node.rcast.decider.overhears
        adaptive_summary = None
        if self.config.overhearing_policy != "fixed":
            policies = [(n.node_id, n.rcast.adaptive) for n in self.nodes
                        if n.rcast is not None and n.rcast.adaptive is not None]
            adaptive_summary = adaptive_run_summary(
                self.config.overhearing_policy, policies,
                lambda i: self.positions.neighbor_count(i),
            )
        return self.metrics.finalize(
            scheme=self.config.scheme,
            sim_time=self.config.sim_time,
            node_energy=[n.radio.meter.energy_joules() for n in self.nodes],
            node_awake_time=[n.radio.meter.awake_time for n in self.nodes],
            events_processed=self.sim.processed_events,
            fault_counts=(self.faults.fault_counts()
                          if self.faults is not None else None),
            overhear_decisions=decisions,
            overhear_elections=elections,
            adaptive=adaptive_summary,
        )


def build_mobility(config: SimulationConfig, rngs: RngRegistry,
                   arena: Arena) -> MobilityModel:
    """Construct the configured mobility model."""
    rng = rngs.stream("mobility")
    if config.mobility == "waypoint":
        return RandomWaypoint(
            config.num_nodes, arena, rng,
            max_speed=config.max_speed, pause_time=config.pause_time,
        )
    if config.positions is not None:
        return StaticPlacement(list(config.positions), arena)
    return StaticPlacement.uniform_random(config.num_nodes, arena, rng)


def _sender_policy(scheme: str) -> SenderPolicy:
    if scheme == "psm":
        return UnconditionalOverhearing()
    if scheme in ("psm-nooh", "odpm", "span"):
        return NoOverhearing()
    return RcastPolicy()  # rcast


def _build_mac(
    config: SimulationConfig,
    sim: Simulator,
    node_id: int,
    channel: Channel,
    radio: Radio,
    positions: PositionService,
    rngs: RngRegistry,
    trace: TraceSink,
    span_election: Optional["SpanElection"] = None,
    epochs: Optional[EpochScheduler] = None,
) -> Tuple[MacBase, Optional[RcastManager]]:
    mac_rng = rngs.stream(f"mac:{node_id}")
    if config.scheme == "ieee80211":
        return AlwaysOnMac(sim, node_id, channel, radio, positions,
                           mac_rng, trace=trace), None
    adaptive: Optional[AdaptivePolicy] = None
    if config.overhearing_policy != "fixed":
        meter = radio.meter
        adaptive = make_policy(
            config.overhearing_policy,
            neighbor_count_fn=lambda: positions.neighbor_count(node_id),
            awake_seconds_fn=meter.awake_seconds,
            remaining_fraction_fn=meter.remaining_fraction,
            beacon_interval=config.beacon_interval,
            rng_factory=lambda: rngs.stream(f"adaptive:{node_id}"),
        )
    rcast = RcastManager(
        node_id, sim, positions, rngs.stream(f"rcast:{node_id}"),
        sender_policy=_sender_policy(config.scheme),
        use_sender_recency="sender" in config.rcast_factors,
        use_mobility="mobility" in config.rcast_factors,
        use_battery="battery" in config.rcast_factors,
        energy_meter=radio.meter if "battery" in config.rcast_factors else None,
        randomized_broadcast=config.rreq_randomized,
        adaptive=adaptive,
        trace=trace,
    )
    power: PowerManager
    if config.scheme == "odpm":
        power = OdpmPowerManager(node_id=node_id, trace=trace)
        tap_in_am = True
    elif config.scheme == "span":
        from repro.mac.span import SpanPowerManager

        assert span_election is not None, "span scheme requires an election"
        power = SpanPowerManager(node_id, span_election)
        tap_in_am = True
    else:
        power = AlwaysPs()
        tap_in_am = False
    mac = PsmMac(
        sim, node_id, channel, radio, positions, mac_rng,
        rcast=rcast, power_manager=power,
        beacon_interval=config.beacon_interval,
        atim_window=config.atim_window,
        queue_capacity=config.queue_capacity,
        clock_offset=(rngs.stream("clock").uniform(0.0, config.clock_jitter)
                      if config.clock_jitter > 0 else 0.0),
        tap_in_am=tap_in_am,
        opportunistic_tap=config.opportunistic_tap,
        trace=trace,
        epochs=epochs,
    )
    return mac, rcast


def build_network(config: SimulationConfig,
                  trace: TraceSink = NULL_TRACE) -> Network:
    """Wire a complete network for ``config``."""
    # Absolute packet/frame/transmission ids appear in trace output;
    # restarting the process-global counters per build keeps same-seed
    # trace streams byte-identical no matter what ran earlier in-process.
    reset_uid_counter()
    reset_frame_ids()
    reset_tx_ids()
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    arena = Arena(config.arena_w, config.arena_h)
    mobility = build_mobility(config, rngs, arena)
    positions = PositionService(
        sim, mobility,
        tx_range=config.tx_range, cs_range=config.cs_range,
    )
    radios: Dict[int, Radio] = {
        i: Radio(sim, i, EnergyMeter(battery_joules=config.battery_joules,
                                     node_id=i, trace=trace))
        for i in range(config.num_nodes)
    }
    channel = Channel(sim, positions, radios, bitrate=config.bitrate, trace=trace)
    metrics = MetricsCollector(config.num_nodes, seed=config.seed)

    nodes: List[Node] = []
    span_election = None
    if config.scheme == "span":
        from repro.mac.span import SpanElection

        span_election = SpanElection(
            sim, positions, rngs.stream("span"),
            energy_meters={i: r.meter for i, r in radios.items()},
        )
        span_election.start()
    # One shared epoch scheduler: all PSM nodes on the same clock grid
    # (the perfectly-synchronized default) share one batched beacon chain.
    # MACs register in ascending node id, fixing the in-batch order.
    epochs = EpochScheduler(sim)
    for i in range(config.num_nodes):
        mac, rcast = _build_mac(config, sim, i, channel, radios[i],
                                positions, rngs, trace,
                                span_election=span_election, epochs=epochs)
        agent: RoutingAgent[Any]
        if config.routing == "aodv":
            from repro.routing.aodv.protocol import AodvProtocol

            agent = AodvProtocol(sim, i, mac, metrics, trace=trace)
        else:
            agent = DsrProtocol(sim, i, mac, metrics, rngs.stream(f"dsr:{i}"),
                                trace=trace)
        nodes.append(Node(i, radios[i], mac, agent, rcast))

    _attach_traffic(config, sim, rngs, nodes)
    network = Network(config, sim, rngs, positions, channel, nodes, metrics,
                      trace)
    network.span_election = span_election
    if config.faults is not None and not config.faults.is_empty:
        injector = FaultInjector(
            sim, config.faults, config.seed, nodes, radios, channel,
            positions, tx_range=config.tx_range, sim_time=config.sim_time,
            trace=trace,
        )
        injector.arm()
        channel.faults = injector
        network.faults = injector
    return network


def _attach_traffic(config: SimulationConfig, sim: Simulator,
                    rngs: RngRegistry, nodes: List[Node]) -> None:
    if config.num_connections == 0:
        return
    pairs = choose_connections(
        config.num_nodes, config.num_connections, rngs.stream("traffic")
    )
    start = constants.TRAFFIC_START_S
    # The guard keeps late packets from skewing PDR, but must never eat
    # more than half of the active window (short test runs).
    window = config.sim_time - start
    stop = config.sim_time - min(constants.TRAFFIC_STOP_GUARD_S, window / 2)
    for index, (src, dst) in enumerate(pairs):
        nodes[src].sources.append(CbrSource(
            sim, nodes[src].dsr, dst,
            rate_pps=config.packet_rate, packet_bytes=config.packet_bytes,
            start=start, stop=stop, rng=rngs.stream(f"traffic:{index}"),
        ))


def run_simulation(config: SimulationConfig,
                   trace: TraceSink = NULL_TRACE) -> RunMetrics:
    """Build and run one simulation; convenience one-liner."""
    return build_network(config, trace).run()


__all__ = [
    "SCHEMES",
    "SimulationConfig",
    "Network",
    "build_network",
    "build_mobility",
    "run_simulation",
]
