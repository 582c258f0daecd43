"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` times the workload untraced and reports the end-to-end
metrics: host seconds of ``Network.run()`` summed over the workload's
scenario instances (``wall_s``) and the median host seconds of
``build_network`` (``setup_s``), both scaled to a reference host speed
(``calibration.py``); the process's peak RSS; and the simulated delivery
ratio, total energy and mean delay of the instances (see :func:`pooled`).
After the timed pass it re-runs instances (at least one, then more until
``--seconds`` have passed) and the reference scenario, so every run also
checks that repeated runs agree and that the simulator still produces the
recorded outputs.

``--trace 1`` re-runs the first instances with :class:`layers.LayerTracer`
attached and reports per-layer counts and self time, the tracing overhead
and its coverage, and a tracemalloc peak from one more run.  It also
prints which layers the time of each kind of event went to.

The simulator is driven only through ``SimulationConfig`` ->
``build_network`` -> ``Network.run()``, from this single process.  Every
simulated instance is checked (see ``checks.py``); ``failed`` counts the
instance runs that failed a check.  The last line of standard output is
the JSON result; everything before it is the human-readable table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import calibration
import checks
from layers import LAYERS, LayerTracer
from workloads import REFERENCE_SEED, WORKLOADS, Workload, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

#: Roots (event callbacks) whose self time is split out in the psm metrics.
EPOCH_PHASES = (("beacon", "_EpochGroup._fire_beacon"),
                ("announce", "_EpochGroup._fire_announce"),
                ("atim_end", "_EpochGroup._fire_atim_end"))
FINISH = "Channel._finish"
ATTEMPT = "DcfTransmitter._attempt"


def load_program() -> Tuple[Any, Callable[..., Any]]:
    """Import the simulator from the checkout's ``src`` directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    from repro.network import SimulationConfig, build_network
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    return SimulationConfig, build_network


@dataclass
class Instance:
    """One simulated scenario: its timings, outputs and check verdicts."""

    seed: int
    #: host seconds of build_network, then of Network.run(), both scaled
    #: to the reference host speed (see calibration.py)
    setup_s: float
    wall_s: float
    #: unscaled host seconds of Network.run()
    raw_wall_s: float
    metrics: Any
    outputs: Dict[str, Any]
    digest: str
    failures: List[str]
    #: tracemalloc peak of a heap-measured run, else 0
    heap_peak_b: int
    events: int
    cancelled: int


class Bench:
    """Runs instances of one workload and keeps every verdict."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.config_cls, self.build = load_program()
        self.runs: List[Instance] = []
        #: kernel seconds measured after the previous instance
        self._kernel_s: Optional[float] = None

    def run(self, seed: int, tracer: Optional[LayerTracer] = None,
            measure_heap: bool = False) -> Instance:
        """Build, run and check one instance."""
        gc.collect()
        if self._kernel_s is None:
            calibration.kernel()  # warm-up: first use of numpy and allocator
            self._kernel_s = calibration.kernel_seconds()
        before = self._kernel_s
        config = self.config_cls(**self.workload.config(seed))
        if measure_heap:
            tracemalloc.start()
        start = perf_counter()
        network = self.build(config)
        built = perf_counter()
        audit = checks.ReceptionAudit(network.channel)
        if tracer is not None:
            tracer.attach(network)
        began = perf_counter()
        metrics = tracer.run(network) if tracer is not None else network.run()
        ended = perf_counter()
        peak = 0
        if measure_heap:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        after = self._kernel_s = calibration.kernel_seconds()
        reference = calibration.REFERENCE_S
        outputs = checks.outputs(metrics, network.channel, audit)
        instance = Instance(
            seed, (built - start) * reference / before,
            (ended - began) * reference / ((before + after) / 2),
            ended - began, metrics, outputs,
            checks.digest(outputs),
            checks.identity_failures(metrics, network.channel, audit),
            peak, network.sim.processed_events, network.sim.cancelled_events)
        self.runs.append(instance)
        return instance

    def expect_same(self, again: Instance, first: Instance) -> None:
        """Fail ``again`` unless it reproduced ``first`` exactly."""
        if again.digest != first.digest:
            again.failures.append(
                f"disagreement: seed {again.seed} gave digest "
                f"{again.digest[:12]}, first run {first.digest[:12]}")

    def expect_reference(self, instance: Instance) -> None:
        """Fail ``instance`` unless it matches the recorded outputs."""
        recorded = json.loads(REFERENCE_FILE.read_text())["workloads"]
        expected = recorded.get(self.workload.name)
        if expected is None:
            instance.failures.append("reference: no recorded outputs")
            return
        instance.failures += checks.reference_failures(
            checks.reference_values(instance.metrics), expected)

    @property
    def failed(self) -> int:
        return sum(1 for run in self.runs if run.failures)


def pooled(instances: List[Instance]) -> Dict[str, float]:
    """Simulated outputs of a workload's instances taken together.

    Delivery ratio pools the packets and energy sums over the instances.
    Delay is the geometric mean of the instances' mean delays (over those
    that delivered anything): about one congested scenario in ten has a
    mean delay three to five times the typical one, and a pooled mean
    follows those few.
    """
    sent = sum(i.metrics.data_sent for i in instances)
    delivered = sum(i.metrics.data_delivered for i in instances)
    delays = [i.metrics.avg_delay for i in instances
              if i.metrics.data_delivered]
    return {
        "pdr": delivered / sent if sent else 0.0,
        "energy_j": sum(i.metrics.total_energy for i in instances),
        "avg_delay_s": statistics.geometric_mean(delays) if delays else 0.0,
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def measure(bench: Bench, seed: int, seconds: float
            ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """Timed pass over the workload, then agreement and reference checks."""
    workload = bench.workload
    started = perf_counter()
    seeds = [instance_seed(seed, k) for k in range(workload.instances)]
    timed = [bench.run(s) for s in seeds]
    # Agreement: re-run instances in turn, at least one, until the
    # measuring time is used up.
    for k, first in enumerate(timed):
        if k and perf_counter() - started >= seconds:
            break
        bench.expect_same(bench.run(seeds[k]), first)
    if seed == REFERENCE_SEED:
        bench.expect_reference(timed[0])
    else:
        bench.expect_reference(bench.run(instance_seed(REFERENCE_SEED, 0)))

    sim = pooled(timed)
    bases = {
        "wall_s": (f"{sum(i.raw_wall_s for i in timed):.3f} s unscaled, "
                   f"{len(timed)} instances x {workload.sim_time:g} "
                   "simulated s"),
        "setup_s": f"median of {len(bench.runs)} builds",
    }
    return {
        "wall_s": (sum(i.wall_s for i in timed), "s"),
        "setup_s": (statistics.median(i.setup_s for i in bench.runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pdr": (sim["pdr"], "ratio"),
        "energy_j": (sim["energy_j"], "J"),
        "avg_delay_s": (sim["avg_delay_s"], "s"),
    }, bases


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace(bench: Bench, seed: int) -> Tuple[Dict[str, Tuple[float, str]],
                                           Dict[str, str], LayerTracer, float]:
    """Untraced, traced and heap-measured runs of the first instances."""
    workload = bench.workload
    seeds = [instance_seed(seed, k) for k in range(workload.trace_instances)]
    plain = [bench.run(s) for s in seeds]
    tracer = LayerTracer()
    traced = [bench.run(s, tracer=tracer) for s in seeds]
    for again, first in zip(traced, plain):
        bench.expect_same(again, first)
    heap = bench.run(seeds[0], measure_heap=True)
    bench.expect_same(heap, plain[0])

    self_s = tracer.layer_self_s()
    traced_wall = sum(i.raw_wall_s for i in traced)
    overhead = ratio(sum(i.wall_s for i in traced),
                     sum(i.wall_s for i in plain))
    covered = sum(v for layer, v in self_s.items() if layer != "untracked")
    calls = tracer.calls
    events = tracer.events
    chan = [i.outputs["channel"] for i in traced]
    tx_frames = sum(c["frames_sent"] for c in chan)
    receptions = sum(c["audible"] for c in chan)
    delivered = sum(c["frames_delivered"] for c in chan)
    scalar = sum(c["scalar"] for c in chan)
    attempts = events.get(ATTEMPT, 0)
    decisions = sum(i.metrics.overhear_decisions for i in traced)
    elections = sum(i.metrics.overhear_elections for i in traced)
    upcalls = calls.get("dsr.receive", 0) + calls.get("dsr.tap", 0)
    interval_s = bench.config_cls(**workload.config(seeds[0])).beacon_interval
    intervals = round(workload.sim_time / interval_s) * len(traced)
    phase_s = {name: tracer.root_split(root).get("mac.psm", 0.0)
               for name, root in EPOCH_PHASES}
    psm_receive = tracer.root_split(FINISH).get("mac.psm", 0.0)

    metrics = {
        "sim.events": (sum(i.events for i in traced), "count"),
        "sim.dispatch_self_s": (self_s["sim"], "s"),
        "sim.cancelled_events": (sum(i.cancelled for i in traced), "count"),
        "mobility.refreshes": (calls["mobility.refresh"], "count"),
        "mobility.self_s": (self_s["mobility"], "s"),
        "phy.tx_frames": (tx_frames, "count"),
        "phy.receptions": (receptions, "count"),
        "phy.delivered": (delivered, "count"),
        "phy.collided": (sum(c["frames_collided"] for c in chan), "count"),
        "phy.missed_asleep": (sum(c["frames_missed_asleep"] for c in chan),
                              "count"),
        "phy.delivery_ratio": (ratio(delivered, receptions), "ratio"),
        "phy.scalar_share": (ratio(scalar, tx_frames), "ratio"),
        "phy.self_s": (self_s["phy"], "s"),
        "phy.self_us_per_tx": (ratio(self_s["phy"] * 1e6, tx_frames), "us/tx"),
        "dcf.attempts": (attempts, "count"),
        "dcf.attempts_per_tx": (ratio(attempts, tx_frames), "ratio"),
        "dcf.self_s": (self_s["mac.dcf"], "s"),
        "psm.epoch_events": (sum(events.get(r, 0) for _, r in EPOCH_PHASES),
                             "count"),
        "psm.beacon_self_s": (phase_s["beacon"], "s"),
        "psm.announce_self_s": (phase_s["announce"], "s"),
        "psm.atim_end_self_s": (phase_s["atim_end"], "s"),
        "psm.receive_self_s": (psm_receive, "s"),
        "psm.self_us_per_interval": (ratio(self_s["mac.psm"] * 1e6, intervals),
                                     "us/interval"),
        "rcast.decisions": (decisions, "count"),
        "rcast.elections": (elections, "count"),
        "rcast.election_rate": (ratio(elections, decisions), "ratio"),
        "rcast.self_s": (self_s["core.rcast"], "s"),
        "dsr.receive_calls": (calls.get("dsr.receive", 0), "count"),
        "dsr.tap_calls": (calls.get("dsr.tap", 0), "count"),
        "dsr.self_s": (self_s["routing.dsr"], "s"),
        "dsr.self_us_per_call": (ratio(self_s["routing.dsr"] * 1e6, upcalls),
                                 "us/call"),
        "dsr.control_tx": (sum(i.metrics.control_transmissions
                               for i in traced), "count"),
        "dsr.link_breaks": (sum(i.metrics.link_breaks for i in traced),
                            "count"),
        "traffic.emits": (events.get("CbrSource._emit", 0), "count"),
        "traffic.self_s": (self_s["traffic"], "s"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage": (ratio(covered, traced_wall), "ratio"),
        "mem.tracemalloc_peak_mb": (heap.heap_peak_b / 2**20, "MB"),
    }
    bases = {
        "phy.delivery_ratio": f"{delivered} delivered / {receptions} "
                              "receptions",
        "phy.scalar_share": f"{scalar} scalar-path / {tx_frames} "
                            "transmissions",
        "dcf.attempts_per_tx": f"{attempts} attempts / {tx_frames} "
                               "transmissions",
        "rcast.election_rate": f"{elections} elections / {decisions} "
                               "decisions",
        "phy.self_us_per_tx": f"{self_s['phy']:.3f} s / {tx_frames} "
                              "transmissions",
        "psm.self_us_per_interval": (f"{self_s['mac.psm']:.3f} s / "
                                     f"{intervals} beacon intervals"),
        "dsr.self_us_per_call": (f"{self_s['routing.dsr']:.3f} s / {upcalls} "
                                 "MAC->DSR upcalls"),
        "trace.overhead_ratio": (
            f"{sum(i.wall_s for i in traced):.3f} s traced / "
            f"{sum(i.wall_s for i in plain):.3f} s untraced, speed-scaled"),
        "trace.coverage": (f"{covered:.3f} s in spans / {traced_wall:.3f} s "
                           "traced Network.run()"),
    }
    return metrics, bases, tracer, traced_wall


def attribution_table(tracer: LayerTracer, traced_wall: float) -> List[str]:
    """Self time by layer, then each event kind's time split by layer."""
    lines = ["self time by layer (share of traced Network.run()):"]
    self_s = tracer.layer_self_s()
    for layer in LAYERS:
        lines.append(f"  {layer:<12} {self_s[layer]:9.3f} s "
                     f"{100 * ratio(self_s[layer], traced_wall):6.1f} %")
    by_root: Dict[str, Dict[str, float]] = {}
    for (root, layer), seconds in tracer.self_s.items():
        by_root.setdefault(root, {})[layer] = seconds
    lines.append("inclusive time by event kind, split into layer self time:")
    ranked = sorted(by_root.items(), key=lambda kv: -sum(kv[1].values()))
    for root, split in ranked[:8]:
        total = sum(split.values())
        parts = ", ".join(
            f"{layer} {100 * ratio(s, total):.1f}%"
            for layer, s in sorted(split.items(), key=lambda kv: -kv[1])
            if s >= 0.005 * total)
        lines.append(f"  {root:<30} {100 * ratio(total, traced_wall):5.1f} % "
                     f"x{tracer.events.get(root, 0)}: {parts}")
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    """Run one benchmark invocation; return the result and the table."""
    bench = Bench(WORKLOADS[args.workload])
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}"]
    if args.trace:
        metrics, bases, tracer, traced_wall = trace(bench, args.seed)
    else:
        metrics, bases = measure(bench, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        base = f"   ({bases[name]})" if name in bases else ""
        lines.append(f"  {name:<26} {value:>16.6f} {unit}{base}")
    if args.trace:
        lines += attribution_table(tracer, traced_wall)
    for run in bench.runs:
        for failure in run.failures:
            lines.append(f"FAILED seed {run.seed}: {failure}")
    result = {
        "correct": bench.failed == 0,
        "attempted": len(bench.runs),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        result, lines = execute(args)
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
