#!/usr/bin/env python
"""Quickstart: run one Rcast simulation and inspect its metrics.

Builds the paper's network (100 nodes, 1500 x 300 m, 20 CBR connections)
at a laptop-friendly simulated duration, runs it under the Rcast scheme,
and prints every headline metric the paper reports.

Run:  python examples/quickstart.py
"""

from dataclasses import replace

from repro import SimulationConfig, run_simulation


def main() -> None:
    config = SimulationConfig(
        scheme="rcast",        # 'ieee80211' | 'psm' | 'psm-nooh' | 'odpm' | 'rcast'
        num_nodes=100,
        arena_w=1500.0,
        arena_h=300.0,
        num_connections=20,
        packet_rate=0.4,       # packets/second per CBR connection
        packet_bytes=512,
        sim_time=60.0,         # paper: 1125 s
        mobility="waypoint",
        max_speed=2.0,
        pause_time=0.0,
        seed=42,
    )
    metrics = run_simulation(config)

    print("== Rcast quickstart ==")
    print(f"simulated                : {metrics.sim_time:.0f} s, "
          f"{metrics.num_nodes} nodes")
    print(f"data packets sent        : {metrics.data_sent}")
    print(f"data packets delivered   : {metrics.data_delivered} "
          f"(PDR {metrics.pdr * 100:.1f}%)")
    print(f"average end-to-end delay : {metrics.avg_delay * 1e3:.1f} ms")
    print(f"total energy             : {metrics.total_energy:.1f} J")
    print(f"mean / max node energy   : {metrics.mean_node_energy:.1f} / "
          f"{metrics.node_energy.max():.1f} J")
    print(f"energy variance          : {metrics.energy_variance:.1f} J^2")
    print(f"energy per delivered bit : {metrics.energy_per_bit * 1e6:.2f} uJ")
    print(f"routing overhead         : {metrics.normalized_overhead:.2f} "
          "control tx per delivered packet")
    print(f"transmissions by kind    : {metrics.transmissions}")
    print(f"max role number          : {int(metrics.role_numbers.max())}")

    # The same scenario under a different scheme is one line away:
    baseline = run_simulation(replace(config, scheme="ieee80211"))
    saved = (1 - metrics.total_energy / baseline.total_energy) * 100
    print(f"\nvs always-on 802.11      : {baseline.total_energy:.1f} J "
          f"-> Rcast saves {saved:.0f}%")


if __name__ == "__main__":
    main()
