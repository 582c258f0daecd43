"""Hot-path performance benchmark harness (``rcast-repro bench``).

Produces ``BENCH_hotpath.json``: a machine-readable snapshot of simulator
throughput so every future PR has a trajectory to compare against.  Four
microbenchmark stages isolate the layers the hot-path work targets, and a
full `fig7`-style workload measures end-to-end events/sec:

* ``snapshot_refresh`` — :meth:`PositionService._refresh_now` over a
  moving bench-scale topology (spatial grid + link-change accounting);
* ``neighbor_query``   — ``neighbors()`` / ``cs_neighbors()`` /
  ``sorted_neighbors()`` against a warm snapshot (interned, zero-alloc);
* ``transmit_finish``  — a full :meth:`Channel.transmit` →
  :meth:`Channel._finish` broadcast cycle on a 100-node static topology;
* ``engine_drain``     — raw :meth:`Simulator.run` dispatch of no-op
  events (heap push/pop, FIFO ordering, clock advance).

The workload stage runs the heaviest bench-scale fig7 cell (rcast, mobile,
top rate) uninstrumented for the headline events/sec; a *separate*
``workload_profiled`` stage runs it once more under
:class:`~repro.obs.profiler.SimulationProfiler` for the top-callback table.
The two are distinct sections of the artifact on purpose: profiler hooks
cost real wall time, and an artifact that quotes profiled wall time as the
workload figure poisons every later speedup ratio computed from it.

Wall-clock use: this module is a *reporting* consumer of ``perf_counter``
(monotonic; never feeds back into simulated behaviour) and is allowlisted
in rcast-lint's R002 rule alongside ``cli.py`` and ``obs/profiler.py``.

Baselines: ``events_per_sec`` is hardware-dependent, so regression checks
compare against a *committed* baseline JSON (see ``rcast-repro bench
--baseline``) rather than an absolute number.  Speedup claims re-measure
both sides on one machine, interleaved, and compare wall time.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.constants import ARENA_H_M, ARENA_W_M
from repro.mobility.base import Arena
from repro.mobility.manager import PositionService
from repro.mobility.static import StaticPlacement
from repro.mobility.waypoint import RandomWaypoint
from repro.network import SimulationConfig, build_network
from repro.obs.profiler import SimulationProfiler
from repro.sim.engine import Simulator
from repro.sim.rng import derived_stream

#: JSON schema tag for BENCH_hotpath.json consumers (CI, plots).
#: v2 (wake-on-idle DCF era): top-level ``events``/``wall_time_s`` mirror
#: the workload — events/sec alone is not comparable across a change to
#: the *event model* (eliminating poll events shrinks the numerator
#: without slowing the simulation), so speedup claims must quote wall
#: time on the fixed workload.
#: v3 (streaming-telemetry era): a ``memory`` section records the
#: tracemalloc peak heap of the workload plus collector/timeline byte
#: estimates, and ``compare_to_baseline`` gates the peak like it gates
#: events/sec — unlike wall time, peak heap on a deterministic workload
#: is stable across machines.
#: v4 (epoch-batching era): the ``workload`` section is *uninstrumented
#: only*; the profiler run and its top-callback table live in a separate
#: ``workload_profiled`` section with its own wall time and events/sec.
#: v3 artifacts could (and the committed one did) end up quoting
#: profiled numbers as the workload figure, silently deflating every
#: speedup ratio derived from them; the regression gate reads only the
#: uninstrumented section.  Stage/memory/profile sections are optional
#: (``--workload-only`` CI runs omit them).
#: v5: the collector has one mode (distribution summaries always on), so
#: ``memory`` holds one peak instead of a per-mode split, and the
#: pre-overhaul reference and its speedup ratios are gone.
SCHEMA = "rcast-bench-hotpath/5"

#: The fig7-style workload per bench scale: the heaviest cell of the
#: bench-scale fig7 sweep (rcast, mobile, the scale's top packet rate).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "smoke": dict(scheme="rcast", num_nodes=30, packet_rate=2.0,
                  sim_time=30.0, num_connections=6, mobility="waypoint",
                  max_speed=2.0, pause_time=0.0, seed=1),
    "bench": dict(scheme="rcast", num_nodes=100, packet_rate=2.0,
                  sim_time=120.0, num_connections=20, mobility="waypoint",
                  max_speed=2.0, pause_time=0.0, seed=1),
    # City-grid arena: the fig7 node density held constant while the
    # population scales 10x (area 2121 m x 2121 m ~= 10x the default
    # 1500 m x 300 m strip), so per-transmission audible sets stay
    # bench-sized and the scale axis isolates *population* cost — the
    # regime the epoch-batched PSM machinery and counting channel wake
    # exist for.  Traffic stays at the bench workload's absolute level
    # (20 connections): scaling connections with the population buries
    # the population axis under 10x the DSR discovery/forwarding work
    # (measured ~165k events per simulated second at 50 connections —
    # hours of wall time at 200).
    "large": dict(scheme="rcast", num_nodes=1000, packet_rate=2.0,
                  sim_time=120.0, num_connections=20, mobility="waypoint",
                  max_speed=2.0, pause_time=0.0, seed=1,
                  arena_w=2121.0, arena_h=2121.0),
}


def _timed(fn: Callable[[], Any], repeat: int) -> Tuple[float, Any]:
    """Run ``fn`` ``repeat`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


# ----------------------------------------------------------------------
# Microbenchmark stages
# ----------------------------------------------------------------------

def bench_snapshot_refresh(num_nodes: int = 100, iterations: int = 30,
                           repeat: int = 3) -> Dict[str, Any]:
    """Forced :meth:`PositionService._refresh_now` over a moving topology.

    The clock is stepped one refresh period per iteration so node movement
    produces genuine membership churn (grid rebuild + link-change
    accounting + re-interning), not a cache of the same snapshot.
    """
    sim = Simulator()
    arena = Arena(ARENA_W_M, ARENA_H_M)
    model = RandomWaypoint(num_nodes, arena,
                           derived_stream(7, "bench:refresh"), max_speed=20.0)
    service = PositionService(sim, model)

    def once() -> int:
        # Advance monotonically (also across repeats): the waypoint model
        # rejects backwards queries.
        for _ in range(iterations):
            sim.now += service.refresh
            service._refresh_now(force=True)
        return iterations

    wall, _ = _timed(once, repeat)
    return {
        "iterations": iterations,
        "wall_time_s": wall,
        "refreshes_per_sec": iterations / wall,
        "nodes": num_nodes,
    }


def bench_neighbor_query(num_nodes: int = 100, iterations: int = 2000,
                         repeat: int = 3) -> Dict[str, Any]:
    """Warm-snapshot ``neighbors``/``cs_neighbors``/``sorted_neighbors``."""
    sim = Simulator()
    arena = Arena(ARENA_W_M, ARENA_H_M)
    model = StaticPlacement.uniform_random(
        num_nodes, arena, derived_stream(7, "bench:query"))
    service = PositionService(sim, model)
    ops_per_pass = num_nodes * 3

    def once() -> int:
        total = 0
        for _ in range(iterations):
            for node in range(num_nodes):
                total += len(service.neighbors(node))
                total += len(service.cs_neighbors(node))
                total += len(service.sorted_neighbors(node))
        return total

    wall, _ = _timed(once, repeat)
    queries = iterations * ops_per_pass
    return {
        "iterations": queries,
        "wall_time_s": wall,
        "queries_per_sec": queries / wall,
        "nodes": num_nodes,
    }


def bench_transmit_finish(num_nodes: int = 100, iterations: int = 2000,
                          repeat: int = 3) -> Dict[str, Any]:
    """Full broadcast transmit → finish cycles on a static topology."""
    from repro.mac.frames import BROADCAST, Frame
    from repro.phy.channel import Channel
    from repro.phy.radio import Radio

    class _Payload:
        kind = "data"
        size_bytes = 512

    sim = Simulator()
    arena = Arena(ARENA_W_M, ARENA_H_M)
    model = StaticPlacement.uniform_random(
        num_nodes, arena, derived_stream(7, "bench:transmit"))
    service = PositionService(sim, model)
    radios = {i: Radio(sim, i) for i in range(num_nodes)}
    channel = Channel(sim, service, radios)
    for i in range(num_nodes):
        channel.attach(i, lambda frame, sender: None)

    def once() -> int:
        for i in range(iterations):
            frame = Frame(src=i % num_nodes, dst=BROADCAST, packet=_Payload())
            channel.transmit(i % num_nodes, frame)
            sim.run()  # drains the tx-end events for this cycle
        return iterations

    wall, _ = _timed(once, repeat)
    return {
        "iterations": iterations,
        "wall_time_s": wall,
        "cycles_per_sec": iterations / wall,
        "nodes": num_nodes,
    }


def bench_engine_drain(events: int = 200_000, repeat: int = 3) -> Dict[str, Any]:
    """Raw dispatch throughput: heap traffic + clock advance, no-op work."""

    def _noop() -> None:
        return None

    def once() -> int:
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-6, _noop)
        sim.run()
        return sim.processed_events

    wall, fired = _timed(once, repeat)
    return {
        "iterations": events,
        "wall_time_s": wall,
        "events_per_sec": fired / wall,
    }


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------

def bench_memory(scale: str = "bench",
                 timeline_capacity: int = 1024) -> Dict[str, Any]:
    """Peak-heap accounting of the workload.

    The workload runs once under ``tracemalloc`` (≈2x wall overhead,
    which is why this stage stays out of the throughput figures) with a
    columnar :class:`~repro.obs.metrics.TimelineRecorder` observing at
    1 Hz virtual time — the same observability surface ``rcast-repro run
    --sample-interval`` wires up.  Alongside the interpreter-level peak,
    two analytic estimates localize where observability memory goes: the
    collector's peak pending-record footprint and the timeline's
    columnar block size.
    """
    import sys
    import tracemalloc

    from repro.metrics.collector import _DataRecord
    from repro.obs.metrics import TimelineRecorder

    # One dict slot (key + entry) on top of the dataclass itself; an
    # estimate, not an audit — tracemalloc has the ground truth.
    record_bytes = sys.getsizeof(_DataRecord(0, 0, 0, 0.0, 0)) + 96
    network = build_network(SimulationConfig(**WORKLOADS[scale]))
    recorder = TimelineRecorder(period=1.0, capacity=timeline_capacity)
    peak_pending = 0

    def observe(net: Any) -> None:
        nonlocal peak_pending
        recorder.observe(net)
        pending = net.metrics.pending_records
        if pending > peak_pending:
            peak_pending = pending

    tracemalloc.start()
    network.run(observer=observe, observe_period=1.0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "scale": scale,
        "observe_period_s": 1.0,
        "tracemalloc_peak_bytes": peak,
        "peak_pending_records": peak_pending,
        "collector_bytes_estimate": peak_pending * record_bytes,
        "timeline_nbytes": recorder.nbytes,
        "timeline_samples": len(recorder),
    }


# ----------------------------------------------------------------------
# End-to-end workload
# ----------------------------------------------------------------------

def bench_workload(scale: str = "bench", repeat: int = 3) -> Dict[str, Any]:
    """The fig7-style workload, *uninstrumented*: the headline figures.

    Best of ``repeat`` runs with no profiler hooks installed.  Profiled
    numbers live in :func:`bench_workload_profiled` — never in here, so
    the regression gate and any speedup ratio computed from this section
    are guaranteed to be free of instrumentation overhead.
    """
    config = SimulationConfig(**WORKLOADS[scale])

    def once() -> int:
        network = build_network(config)
        network.run()
        return network.sim.processed_events

    wall, events = _timed(once, repeat)
    return {
        "scale": scale,
        "config": dict(WORKLOADS[scale]),
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall,
        "repeat": repeat,
    }


def bench_workload_profiled(scale: str = "bench",
                            top_n: int = 8) -> Dict[str, Any]:
    """One workload run under the event-loop profiler: top-callback table.

    Reports its own wall time / events/sec so the hook overhead is
    visible (compare against the uninstrumented section) instead of
    silently contaminating it.
    """
    config = SimulationConfig(**WORKLOADS[scale])
    profiler = SimulationProfiler()
    network = build_network(config)
    profiler.install(network.sim)

    start = time.perf_counter()
    network.run()
    wall = time.perf_counter() - start
    events = network.sim.processed_events
    report = profiler.report()

    return {
        "scale": scale,
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall,
        "profiler_top": [
            {
                "callback": stats.name,
                "count": stats.count,
                "total_time_s": stats.total_time,
                "share": (stats.total_time / report.wall_time
                          if report.wall_time > 0 else 0.0),
            }
            for stats in report.top(top_n)
        ],
    }


def run_hotpath_bench(scale: str = "bench", repeat: int = 3,
                      top_n: int = 8,
                      workload_only: bool = False) -> Dict[str, Any]:
    """All stages + workload, as the ``BENCH_hotpath.json`` payload.

    ``workload_only`` skips the microbenchmark stages, the profiled run
    and the tracemalloc memory stage — the shape CI uses for the
    ``large`` scale, where the workload itself is minutes long and the
    2x tracemalloc overhead would double the job again (the 1k-node
    memory ceiling is enforced by the dedicated ``memory-smoke`` job).
    """
    if scale not in WORKLOADS:
        raise ValueError(f"scale must be one of {sorted(WORKLOADS)}, "
                         f"got {scale!r}")
    workload = bench_workload(scale, repeat=repeat)
    result: Dict[str, Any] = {
        "schema": SCHEMA,
        "scale": scale,
        "workload": workload,
        "events": workload["events"],
        "wall_time_s": workload["wall_time_s"],
        "events_per_sec": workload["events_per_sec"],
    }
    if not workload_only:
        nodes = int(WORKLOADS[scale]["num_nodes"])
        result["stages"] = {
            "snapshot_refresh": bench_snapshot_refresh(nodes, repeat=repeat),
            "neighbor_query": bench_neighbor_query(nodes, repeat=repeat),
            "transmit_finish": bench_transmit_finish(nodes, repeat=repeat),
            "engine_drain": bench_engine_drain(repeat=repeat),
        }
        result["workload_profiled"] = bench_workload_profiled(scale,
                                                              top_n=top_n)
        result["memory"] = bench_memory(scale)
    return result


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

def _memory_peak(payload: Dict[str, Any]) -> Optional[float]:
    """The tracemalloc peak of a v5 payload's ``memory`` section, if any."""
    peak = payload.get("memory", {}).get("tracemalloc_peak_bytes")
    return float(peak) if peak else None


def compare_to_baseline(result: Dict[str, Any], baseline: Dict[str, Any],
                        max_regression: float = 0.30,
                        max_memory_regression: float = 0.50
                        ) -> Tuple[bool, str]:
    """CI gate: fail on a throughput or peak-memory regression.

    ``baseline`` is a previously-committed BENCH_hotpath.json (or the
    reduced ``benchmarks/baseline_hotpath.json``); ``events_per_sec``
    may regress at most ``max_regression``, and — when both payloads
    carry a ``memory`` section — the tracemalloc peak may grow at most
    ``max_memory_regression``.  Both only for a
    matching scale.  Wall time is recorded but deliberately not gated:
    CI runners differ too much in raw speed for a committed wall floor,
    while events/sec stays meaningful as long as the committed baseline
    was measured under the same event model (baselines are refreshed
    whenever the model changes, as the wake-on-idle overhaul did), and
    peak heap on a deterministic workload is stable across machines.
    """
    base_scale = baseline.get("scale")
    if base_scale is not None and base_scale != result["scale"]:
        return True, (f"baseline scale {base_scale!r} != run scale "
                      f"{result['scale']!r}; regression check skipped")
    base_eps = float(baseline["events_per_sec"])
    eps = float(result["events_per_sec"])
    floor = base_eps * (1.0 - max_regression)
    ratio = eps / base_eps if base_eps else float("inf")
    verdict = (f"events/sec {eps:,.0f} vs baseline {base_eps:,.0f} "
               f"({ratio:.2f}x, floor {floor:,.0f})")
    if eps < floor:
        return False, f"REGRESSION: {verdict}"
    base_peak = _memory_peak(baseline)
    peak = _memory_peak(result)
    if base_peak is not None and peak is not None:
        ceiling = base_peak * (1.0 + max_memory_regression)
        mem_verdict = (
            f"peak heap {peak / 1e6:.1f}MB vs baseline "
            f"{base_peak / 1e6:.1f}MB (ceiling {ceiling / 1e6:.1f}MB)")
        if peak > ceiling:
            return False, f"REGRESSION: {mem_verdict}"
        verdict = f"{verdict}; {mem_verdict}"
    return True, f"ok: {verdict}"


def format_result(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a bench result."""
    lines = [
        f"hotpath bench [{result['scale']}]",
        f"  workload events/sec : {result['events_per_sec']:,.0f}"
        f"  ({result['workload']['events']:,} events, "
        f"best of {result['workload']['repeat']} in "
        f"{result['workload']['wall_time_s']:.3f}s, uninstrumented)",
    ]
    for name, stage in result.get("stages", {}).items():
        rate_key = next(k for k in stage if k.endswith("_per_sec"))
        lines.append(f"  {name:<19} : {stage[rate_key]:,.0f} "
                     f"{rate_key.replace('_per_sec', '')}/s "
                     f"({stage['wall_time_s']:.3f}s)")
    if "memory" in result:
        mem = result["memory"]
        lines.append(
            f"  peak heap           : "
            f"{mem['tracemalloc_peak_bytes'] / 1e6:7.1f}MB  "
            f"(pending records {mem['peak_pending_records']:,}, "
            f"timeline {mem['timeline_nbytes'] / 1e3:,.0f}kB)")
    profiled = result.get("workload_profiled")
    if profiled is not None:
        lines.append(
            f"  profiled run        : {profiled['wall_time_s']:.3f}s "
            f"({profiled['events_per_sec']:,.0f} ev/s under hooks)")
        lines.append("  top callbacks:")
        for entry in profiled["profiler_top"][:5]:
            lines.append(f"    {entry['callback']:<40} "
                         f"{entry['share'] * 100:5.1f}%  x{entry['count']}")
    return "\n".join(lines)


def write_json(result: Dict[str, Any], path: str) -> str:
    """Write ``result`` to ``path`` as indented JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return path


def load_json(path: str) -> Dict[str, Any]:
    """Load a benchmark result / baseline JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


__all__ = [
    "SCHEMA",
    "WORKLOADS",
    "bench_engine_drain",
    "bench_memory",
    "bench_neighbor_query",
    "bench_snapshot_refresh",
    "bench_transmit_finish",
    "bench_workload",
    "bench_workload_profiled",
    "compare_to_baseline",
    "format_result",
    "load_json",
    "run_hotpath_bench",
    "write_json",
]
