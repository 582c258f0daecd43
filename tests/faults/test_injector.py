"""FaultInjector semantics against small built networks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    EMPTY_PLAN,
    BurstLoss,
    EnergyDepletion,
    FaultPlan,
    NodeCrash,
    NoiseWindow,
    PacketLoss,
    RandomCrashes,
)
from repro.network import SimulationConfig, build_network, run_simulation
from repro.obs.sinks import FilteredSink
from repro.sim.trace import TraceLog
from tests.conftest import line_config


def start(network) -> None:
    for node in network.nodes:
        node.start()


class TestWiring:
    def test_no_plan_builds_no_injector(self) -> None:
        net = build_network(line_config("rcast", n=3))
        assert net.faults is None
        assert net.channel.faults is None

    def test_empty_plan_builds_no_injector(self) -> None:
        net = build_network(line_config("rcast", n=3, faults=EMPTY_PLAN))
        assert net.faults is None

    def test_nonempty_plan_wires_injector(self) -> None:
        plan = FaultPlan((PacketLoss(rate=0.1),))
        net = build_network(line_config("rcast", n=3, faults=plan))
        assert net.faults is not None
        assert net.channel.faults is net.faults

    def test_config_coerces_plan_dict(self) -> None:
        config = SimulationConfig(faults={  # type: ignore[arg-type]
            "version": 1,
            "events": [{"kind": "packet-loss", "rate": 0.25}],
        })
        assert isinstance(config.faults, FaultPlan)
        assert config.faults.events == (PacketLoss(rate=0.25),)

    def test_plan_targeting_missing_node_rejected_by_config(self) -> None:
        plan = FaultPlan((NodeCrash(node=7, at=1.0),))
        with pytest.raises(ConfigurationError, match="node 7"):
            line_config("rcast", n=3, faults=plan)

    @pytest.mark.parametrize("event", [
        PacketLoss(rate=1.0, nodes=(99,)),
        PacketLoss(rate=1.0, links=((0, 99),)),
        RandomCrashes(fraction=1.0, start=0.0, stop=1.0, nodes=(0, 99)),
    ], ids=["loss-nodes", "loss-links", "random-crash-nodes"])
    def test_scoped_node_ids_checked_by_config(self, event) -> None:
        """A loss scope naming a missing node used to be a silent no-op."""
        with pytest.raises(ConfigurationError, match="node 99"):
            line_config("rcast", n=3, faults=FaultPlan((event,)))

    def test_config_rejects_non_plan_faults(self) -> None:
        with pytest.raises(ConfigurationError, match="faults must be"):
            line_config("rcast", n=3, faults=[NodeCrash(node=1, at=1.0)])

    def test_injector_refuses_empty_plan(self) -> None:
        net = build_network(line_config("rcast", n=3))
        with pytest.raises(ConfigurationError, match="non-empty"):
            FaultInjector(
                net.sim, EMPTY_PLAN, 1, net.nodes,
                {n.node_id: n.radio for n in net.nodes}, net.channel,
                net.positions, tx_range=250.0, sim_time=10.0,
            )


class TestCrashRecovery:
    def test_crash_then_recover(self) -> None:
        plan = FaultPlan((NodeCrash(node=1, at=2.0, recover_at=5.0),))
        net = build_network(line_config("psm", n=3, faults=plan))
        injector = net.faults
        assert injector is not None
        start(net)
        net.sim.run(until=3.0)
        assert 1 in injector._down
        assert 0 not in injector._down
        assert net.nodes[1].dsr.down
        net.sim.run(until=6.0)
        assert 1 not in injector._down
        assert not net.nodes[1].dsr.down
        assert injector.fault_counts() == {"crashes": 1, "recoveries": 1}

    def test_permanent_crash_never_recovers(self) -> None:
        plan = FaultPlan((NodeCrash(node=0, at=1.0),))
        metrics = run_simulation(line_config("rcast", n=3, faults=plan,
                                             sim_time=10.0))
        assert metrics.fault_counts == {"crashes": 1}

    def test_crashed_node_rejects_sends(self) -> None:
        plan = FaultPlan((NodeCrash(node=1, at=2.0),))
        net = build_network(line_config("rcast", n=3, faults=plan))
        start(net)
        net.sim.run(until=3.0)
        assert net.nodes[1].dsr.send_data(2, 512) == -1

    def test_depletion_closes_battery_book(self) -> None:
        plan = FaultPlan((EnergyDepletion(node=2, at=3.0),))
        net = build_network(line_config("psm", n=3, faults=plan,
                                        sim_time=8.0))
        start(net)
        net.sim.run(until=8.0)
        assert net.faults is not None
        assert net.faults.fault_counts() == {"depletions": 1}
        assert net.nodes[2].radio.meter.remaining_fraction(8.0) == 0.0
        assert net.nodes[0].radio.meter.remaining_fraction(8.0) > 0.0

    def test_random_crashes_fraction_one_kills_all_candidates(self) -> None:
        plan = FaultPlan((RandomCrashes(fraction=1.0, start=1.0, stop=2.0,
                                        nodes=(0, 2)),))
        net = build_network(line_config("rcast", n=4, faults=plan))
        injector = net.faults
        assert injector is not None
        start(net)
        net.sim.run(until=3.0)
        assert 0 in injector._down and 2 in injector._down
        assert 1 not in injector._down and 3 not in injector._down
        assert injector.fault_counts() == {"crashes": 2}

    def test_random_crashes_fraction_zero_is_harmless(self) -> None:
        plan = FaultPlan((RandomCrashes(fraction=0.0, start=1.0, stop=2.0),))
        metrics = run_simulation(line_config("rcast", n=3, faults=plan,
                                             sim_time=5.0))
        assert metrics.fault_counts == {}


class TestDeliveryImpairments:
    def make_injector(self, plan: FaultPlan):
        net = build_network(line_config("rcast", n=4, faults=plan))
        assert net.faults is not None
        return net.faults

    def test_bernoulli_scope_window_and_receiver(self) -> None:
        injector = self.make_injector(FaultPlan((
            PacketLoss(rate=1.0, start=2.0, stop=3.0, nodes=(1,)),
        )))
        assert injector.drop_delivery(0, 1, 2.5)
        assert not injector.drop_delivery(0, 2, 2.5)   # receiver not scoped
        assert not injector.drop_delivery(0, 1, 1.0)   # before window
        assert not injector.drop_delivery(0, 1, 3.0)   # stop is exclusive
        assert injector.fault_counts() == {"loss_drops": 1}

    def test_bernoulli_link_scope_is_directed(self) -> None:
        injector = self.make_injector(FaultPlan((
            PacketLoss(rate=1.0, links=((0, 1),)),
        )))
        assert injector.drop_delivery(0, 1, 5.0)
        assert not injector.drop_delivery(1, 0, 5.0)

    def test_rate_zero_never_drops(self) -> None:
        injector = self.make_injector(FaultPlan((PacketLoss(rate=0.0),)))
        assert not any(injector.drop_delivery(0, 1, t * 0.1)
                       for t in range(50))

    def test_noise_window_shrinks_range(self) -> None:
        # Line spacing is 200 m, tx range 250 m: factor 0.5 (125 m) cuts
        # adjacent links inside the window, leaves them alone outside.
        injector = self.make_injector(FaultPlan((
            NoiseWindow(start=2.0, stop=8.0, range_factor=0.5),
        )))
        assert injector.drop_delivery(0, 1, 5.0)
        assert not injector.drop_delivery(0, 1, 1.0)   # before window
        assert not injector.drop_delivery(0, 1, 8.0)   # stop is exclusive
        assert injector.fault_counts() == {"noise_drops": 1}

    def test_overlapping_noise_takes_smallest_factor(self) -> None:
        injector = self.make_injector(FaultPlan((
            NoiseWindow(start=0.0, stop=10.0, range_factor=1.0),
            NoiseWindow(start=4.0, stop=6.0, range_factor=0.5),
        )))
        assert not injector.drop_delivery(0, 1, 2.0)   # factor 1.0: 250 m
        assert injector.drop_delivery(0, 1, 5.0)       # factor 0.5: 125 m

    def test_burst_loss_is_deterministic_per_seed(self) -> None:
        plan = FaultPlan((BurstLoss(mean_good=1.0, mean_bad=0.5,
                                    loss_bad=1.0),))
        times = [i * 0.2 for i in range(60)]
        seq_a = [self.make_injector(plan).drop_delivery(0, 1, t)
                 for t in times]
        injector_b = self.make_injector(plan)
        seq_b = [injector_b.drop_delivery(0, 1, t) for t in times]
        assert seq_a == seq_b
        assert any(seq_a)          # the bad state drops
        assert not all(seq_a)      # the good state does not (loss_good=0)
        assert injector_b.fault_counts() == {"burst_drops": sum(seq_b)}

    def test_full_loss_starves_traffic(self) -> None:
        config = line_config("ieee80211", n=3, num_connections=1,
                             packet_rate=1.0, sim_time=15.0)
        plan = FaultPlan((PacketLoss(rate=1.0),))
        metrics = run_simulation(replace(config, faults=plan))
        assert metrics.data_delivered == 0
        assert metrics.fault_counts.get("loss_drops", 0) > 0

    def test_vetoed_receptions_close_the_reception_identity(self) -> None:
        """Every audible reception of a finished frame is delivered,
        missed, collided or vetoed, also under a noise window and a crash.

        The crashed node stays in its neighbours' ATIM fan-out while it is
        down and must absorb nothing there.
        """
        plan = FaultPlan((
            NoiseWindow(start=3.0, stop=8.0, range_factor=0.5),
            NodeCrash(node=5, at=4.0, recover_at=7.0),
        ))
        config = SimulationConfig(
            scheme="rcast", seed=7, sim_time=12.0, num_nodes=12,
            arena_w=600.0, arena_h=300.0, num_connections=3,
            packet_rate=2.0, mobility="waypoint", max_speed=2.0,
            pause_time=0.0, faults=plan)
        log = TraceLog()
        net = build_network(config, FilteredSink(log, ("atim",)))
        channel = net.channel
        transmissions = []
        transmit = channel.transmit

        def recorded(sender, frame):
            tx = transmit(sender, frame)
            transmissions.append(tx)
            return tx

        channel.transmit = recorded
        crashed = net.nodes[5]
        down = {}
        net.sim.schedule_at(4.01, lambda: down.update(
            missed_at_crash=crashed.mac.missed_announcements))
        net.sim.schedule_at(6.99, lambda: down.update(
            neighbours=net.positions.sorted_neighbors(5),
            missed_before_recovery=crashed.mac.missed_announcements,
            heard=[t for t in crashed.rcast.heard_at.values() if t > 4.0]))
        net.run()
        audible = sum(len(tx.audible) for tx in transmissions
                      if tx.sender not in channel._active
                      or channel._active[tx.sender] is not tx)
        counts = net.faults.counts
        vetoed = sum(counts.get(kind, 0) for kind in
                     ("loss_drops", "burst_drops", "noise_drops"))
        assert counts["noise_drops"] > 0
        assert audible == (channel.frames_delivered
                           + channel.frames_missed_asleep
                           + channel.frames_collided
                           + vetoed)
        # Neighbours kept announcing to the crashed node; it absorbed
        # nothing, and a halted node does not count the ATIMs as missed.
        assert any(r.event == "advertise" and 4.01 < r.time < 6.99
                   and r.node in down["neighbours"] for r in log)
        assert down["heard"] == []
        assert down["missed_before_recovery"] == down["missed_at_crash"]
        assert net.faults.counts["recoveries"] == 1


class TestLifecycle:
    def test_arm_is_once_only(self) -> None:
        plan = FaultPlan((PacketLoss(rate=0.1),))
        net = build_network(line_config("rcast", n=3, faults=plan))
        assert net.faults is not None
        with pytest.raises(ConfigurationError, match="twice"):
            net.faults.arm()

    def test_run_is_deterministic_under_faults(self) -> None:
        config = line_config("rcast", n=4, num_connections=1,
                             sim_time=12.0, faults=FaultPlan((
                                 NodeCrash(node=2, at=4.0, recover_at=8.0),
                                 PacketLoss(rate=0.3),
                             )))
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.to_dict() == b.to_dict()
        assert a.fault_counts == b.fault_counts

    def test_total_outage_drops_replications_loudly(self) -> None:
        # Every node dies before traffic starts: nothing is delivered, so
        # delivery-derived metrics go non-finite.  aggregate() must drop
        # them per-metric with a warning, never silently.
        from repro.experiments import runner
        from repro.experiments.parallel import run_grid

        config = line_config(
            "rcast", n=3, num_connections=1,
            packet_rate=1.0, sim_time=6.0,
            faults=FaultPlan((RandomCrashes(fraction=1.0, start=0.2,
                                            stop=0.5),)))
        runs = run_grid({None: config}, 2)[None]
        assert all(m.fault_counts == {"crashes": 3} for m in runs)
        assert all(m.data_delivered == 0 for m in runs)
        with pytest.warns(runner.NonFiniteReplicationWarning):
            agg = runner.aggregate(runs)
        assert agg.dropped_replications["energy_per_bit"] == 2
        assert agg.dropped_replications["normalized_overhead"] == 2
        # Energy stays finite: dead nodes still have a consumption record.
        assert "total_energy" not in agg.dropped_replications

    def test_fault_counts_key_only_when_faulty(self) -> None:
        base = line_config("rcast", n=3, sim_time=5.0)
        clean = run_simulation(base)
        assert clean.fault_counts == {}
        assert "fault_counts" not in clean.to_dict()

        faulty = run_simulation(line_config(
            "rcast", n=3, sim_time=5.0,
            faults=FaultPlan((NodeCrash(node=0, at=1.0),))))
        assert faulty.to_dict()["fault_counts"] == {"crashes": 1}
