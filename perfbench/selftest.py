"""Self-test of the benchmark at a tiny scale (a few seconds).

    python3 perfbench/selftest.py

Checks that

1. both modes of ``run.py`` emit every metric ``BENCHMARK.json`` names,
   with its declared unit, and pass their own output checks;
2. tracing leaves the simulated outputs byte-identical;
3. the output identities hold on rcast, ieee80211 and odpm stacks;
4. a deliberately broken identity fails the run: a collector that counts
   every originated packet twice, and an energy meter that bills doze time
   at the awake power.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, List

import run
from layers import LayerTracer
from workloads import WORKLOADS, instance_seed

SMOKE = WORKLOADS["smoke"]


def check_metrics_emitted() -> List[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload=SMOKE.name, seed=3, seconds=0.0,
                                  trace=traced)
        result, _ = run.execute(args)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {traced}: own checks failed")
        emitted = result["metrics"]
        for metric in spec[section]:
            got = emitted.get(metric["name"])
            if got is None:
                problems.append(f"trace {traced}: {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                problems.append(f"trace {traced}: {metric['name']} in "
                                f"{got['unit']}, declared {metric['unit']}")
        extra = set(emitted) - {m["name"] for m in spec[section]}
        if extra:
            problems.append(f"trace {traced}: undeclared {sorted(extra)}")
    return problems


def check_trace_identical() -> List[str]:
    bench = run.Bench(SMOKE)
    seed = instance_seed(3, 0)
    plain = bench.run(seed)
    traced = bench.run(seed, tracer=LayerTracer())
    if json.dumps(plain.outputs) != json.dumps(traced.outputs):
        return ["tracing changed the simulated outputs"]
    return []


def check_identities_hold() -> List[str]:
    """The identities hold for the always-on, ODPM and Rcast stacks."""
    problems = []
    for scheme in ("rcast", "ieee80211", "odpm"):
        bench = run.Bench(dataclasses.replace(SMOKE, scheme=scheme))
        instance = bench.run(instance_seed(3, 0))
        problems += [f"{scheme}: {f}" for f in instance.failures]
    return problems


def broken_run(patch: Callable[[], Callable[[], None]],
               expect: str) -> List[str]:
    """Run one smoke instance under ``patch``; it must fail ``expect``."""
    bench = run.Bench(SMOKE)
    undo = patch()
    try:
        instance = bench.run(instance_seed(3, 0))
    finally:
        undo()
    if not any(f.startswith(expect) for f in instance.failures):
        return [f"broken {expect} identity passed: {instance.failures}"]
    return []


def double_count_sent() -> Callable[[], None]:
    from repro.metrics.collector import MetricsCollector

    original = MetricsCollector.data_originated

    def miscounting(self, *args):  # type: ignore[no-untyped-def]
        original(self, *args)
        self._sent += 1

    MetricsCollector.data_originated = (  # type: ignore[method-assign]
        miscounting)
    return lambda: setattr(MetricsCollector, "data_originated", original)


def bill_doze_awake() -> Callable[[], None]:
    from repro.phy.energy import EnergyMeter, RadioState

    original = EnergyMeter.__init__

    def init(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        original(self, *args, **kwargs)
        self._power[RadioState.SLEEP] = self._power[RadioState.IDLE]

    EnergyMeter.__init__ = init  # type: ignore[method-assign]
    return lambda: setattr(EnergyMeter, "__init__", original)


def main() -> int:
    problems = (check_metrics_emitted() + check_trace_identical()
                + check_identities_hold()
                + broken_run(double_count_sent, "packets")
                + broken_run(bill_doze_awake, "energy"))
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
