"""Tests for the SPAN coordinator election and power manager."""

from repro.mac.power import PowerMode
from repro.mac.span import SpanElection, SpanPowerManager
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def make_election(positions, tx_range=150.0):
    sim = Simulator()
    arena = Arena(max(x for x, _ in positions) + 100.0,
                  max(y for _, y in positions) + 100.0)
    model = StaticPlacement(list(positions), arena)
    service = PositionService(sim, model, tx_range=tx_range,
                              cs_range=tx_range * 2)
    rngs = RngRegistry(31)
    election = SpanElection(sim, service, rngs.stream("span"))
    return sim, election


def test_line_elects_middle_coordinators():
    # 0-1-2: node 1 must become coordinator (0 and 2 cannot hear each other).
    sim, election = make_election([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)])
    election.start()
    sim.run(until=10.0)
    assert election.is_coordinator(1)
    assert not election.is_coordinator(0)
    assert not election.is_coordinator(2)


def test_clique_needs_no_coordinators():
    # All nodes mutually in range: every pair reaches directly.
    sim, election = make_election([(0.0, 50.0), (50.0, 50.0), (100.0, 50.0)])
    election.start()
    sim.run(until=10.0)
    assert election.backbone_size == 0


def test_long_line_elects_every_interior_node():
    """The paper's criticism: in sparse networks SPAN degenerates toward
    all-AM — on a line, every interior node is a cut vertex."""
    n = 6
    sim, election = make_election([(i * 100.0, 50.0) for i in range(n)])
    election.start()
    sim.run(until=10.0)
    for node in range(1, n - 1):
        assert election.is_coordinator(node), node
    assert not election.is_coordinator(0)
    assert not election.is_coordinator(n - 1)


def test_backbone_connects_all_neighbor_pairs():
    import random

    rng = random.Random(5)
    positions = [(rng.uniform(0, 800), rng.uniform(0, 300)) for _ in range(25)]
    sim, election = make_election(positions, tx_range=200.0)
    election.start()
    sim.run(until=15.0)
    # Invariant: after convergence no node still needs to volunteer.
    for node in range(25):
        if not election.is_coordinator(node):
            assert not election._should_volunteer(node), node


def test_withdrawal_when_redundant():
    # Square where diagonal coordinators are redundant once one exists.
    sim, election = make_election(
        [(0.0, 50.0), (100.0, 50.0), (200.0, 50.0), (100.0, 150.0)],
    )
    election.start()
    # Force both middle nodes in as coordinators, then let checks prune.
    election.coordinators.update({1, 3})
    election._since.update({1: 0.0, 3: 0.0})
    sim.run(until=20.0)
    # 0 and 2 are connected via either 1 or 3; only one should remain.
    assert election.backbone_size >= 1
    assert not (election.is_coordinator(1) and election.is_coordinator(3))


def test_power_manager_tracks_election():
    sim, election = make_election([(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)])
    manager = SpanPowerManager(1, election)
    assert manager.mode(0.0) is PowerMode.PS
    election.start()
    sim.run(until=10.0)
    assert manager.mode(sim.now) is PowerMode.AM
    assert "coordinator" in manager.describe()


def test_span_scheme_end_to_end():
    from repro.network import SimulationConfig, run_simulation

    config = SimulationConfig(
        scheme="span", num_nodes=30, arena_w=800.0, arena_h=300.0,
        mobility="static", num_connections=5, packet_rate=0.5,
        sim_time=30.0, seed=3,
    )
    metrics = run_simulation(config)
    assert metrics.pdr > 0.9
    # SPAN saves energy vs always-on but pays for the AM backbone.
    assert metrics.total_energy < 0.8 * (1.15 * 30.0 * 30)


def test_span_statistics_move():
    sim, election = make_election([(i * 100.0, 50.0) for i in range(5)])
    election.start()
    sim.run(until=10.0)
    assert election.backbone_size >= 3
