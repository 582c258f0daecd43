"""Workload definitions: every scenario the benchmark simulates.

A workload is a fixed number of scenario *instances*.  Each instance is one
``SimulationConfig`` whose root seed is derived from the benchmark's
``--seed`` and the instance index, so mobility, connection pairs and CBR
start jitter all come from the seed and the simulator receives nothing but
the resulting config.  ``rcast-bench`` and ``ieee80211-bench`` derive the
same instance seeds, so their instance ``k`` has the same topology,
mobility and traffic; only the scheme differs.

Why many short instances instead of one long run: at the bench cell the
host cost of one scenario varies by 30-40 % (coefficient of variation) from
seed to seed, because the random connection pairs decide route lengths and
where contention builds up, and that floor did not shrink with longer runs
(measured at 20, 30 and 60 simulated seconds).  Summing ``instances``
independent scenarios divides that spread by the square root of their
number.  At 20 simulated seconds an instance costs about 80 % of a 30 s
one, so 20 s instances buy the most scenarios per host second.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict

#: The seed whose instance 0 has its simulated outputs recorded in
#: ``reference.json``; every run re-simulates it and compares.
REFERENCE_SEED = 1

#: The paper's fig7 ``bench`` cell (``repro.obs.bench.WORKLOADS["bench"]``
#: at the seed commit): 100 nodes on the 1500 m x 300 m strip, random
#: waypoint at up to 2 m/s without pause, 20 CBR flows at 2 packets/s.
#: Copied, not imported, so that edits to the program cannot silently
#: change what the benchmark measures.
BENCH_SHAPE: Dict[str, Any] = dict(
    num_nodes=100, packet_rate=2.0, num_connections=20,
    mobility="waypoint", max_speed=2.0, pause_time=0.0,
)

#: The ``large`` cell: 1,000 nodes on a 2121 m x 2121 m grid (the bench
#: density, ten times the area), traffic held at the bench level.
LARGE_SHAPE: Dict[str, Any] = dict(
    BENCH_SHAPE, num_nodes=1000, arena_w=2121.0, arena_h=2121.0,
)


@dataclass(frozen=True)
class Workload:
    """One named workload: a scheme, a scenario shape and its size."""

    name: str
    scheme: str
    shape: Dict[str, Any]
    #: simulated seconds per instance
    sim_time: float
    #: scenario instances timed per untraced run
    instances: int
    #: the first ``trace_instances`` instances are re-run traced
    trace_instances: int

    def config(self, instance_seed_: int) -> Dict[str, Any]:
        """SimulationConfig keyword arguments for one instance."""
        return dict(self.shape, scheme=self.scheme, sim_time=self.sim_time,
                    seed=instance_seed_)


def instance_seed(seed: int, index: int) -> int:
    """Root seed of scenario instance ``index`` of benchmark seed ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The paper's heaviest fig7 cell: DCF contention under PSM deadlines,
    # epoch-batched ATIM machinery and overhear elections.
    Workload("rcast-bench", "rcast", BENCH_SHAPE, sim_time=20.0,
             instances=26, trace_instances=4),
    # Control: the same scenarios without PSM or Rcast, where every
    # decoded frame goes up to DSR.  Its instances cost two thirds of an
    # rcast one, so it runs 6 more for the same steadiness.
    Workload("ieee80211-bench", "ieee80211", BENCH_SHAPE, sim_time=20.0,
             instances=32, trace_instances=4),
    # Population and broadcast cost: RREQ floods across 1,000 nodes stress
    # collision marking, broadcast fan-out and the 1,000-member epoch
    # group.  Not in BENCHMARK.json (see README.md): run by hand.
    Workload("rcast-1k", "rcast", LARGE_SHAPE, sim_time=4.0,
             instances=1, trace_instances=1),
    # Seconds-long scenario for selftest.py only.
    Workload("smoke", "rcast", dict(BENCH_SHAPE, num_nodes=20,
                                    num_connections=4),
             sim_time=8.0, instances=2, trace_instances=2),
)}
