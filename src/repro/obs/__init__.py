"""Observability layer: structured trace sinks, runtime metrics, profiling.

This package is strictly *optional* at run time: simulations built without
it attach :data:`repro.sim.trace.NULL_TRACE` and pay one attribute lookup
per emission point.  Everything here consumes the structured trace stream
or the engine's public counters; nothing in :mod:`repro.sim` imports back.

Modules
-------
``sinks``
    Trace sinks beyond the in-memory :class:`~repro.sim.trace.TraceLog`:
    a JSONL file writer and a category filter that composes with any sink.
``metrics``
    A :class:`TimelineRecorder` that samples per-node residual energy,
    awake fraction, MAC queue depth and engine queue gauges on a fixed
    virtual-time period.
``profiler``
    Opt-in event-loop profiler: per-callback wall time and event counts,
    events/sec, heap depth — the one legitimate wall-clock consumer in the
    simulation path (see the rcast-lint allowlist).
``manifest``
    Per-replication run manifests (seed, config hash, wall time, events
    processed) surfaced through progress events and ``--json-out``.
``stream``
    Fixed-memory online aggregators: Welford moments, deterministic
    reservoir sampling (``obs:*`` derived RNG streams), fixed-bucket
    streaming histograms with interpolated quantiles.  The collector's
    per-run distribution summaries come from here.
``live``
    In-place live progress lines for single runs and sweeps, plus the
    ``--telemetry-out`` JSONL feed; with :mod:`profiler`, the other
    sanctioned wall-clock consumer (rcast-lint R002 allowlist).
``spans``
    Post-hoc flight recorder: correlates ``dsr``/``dcf``/``chan`` trace
    records by packet uid into end-to-end flights with per-layer
    latency and energy attribution (``rcast-repro spans``).
"""

from repro.obs.live import LiveRunMonitor, LiveSweepMonitor, TelemetryWriter
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.metrics import TimelineRecorder, TimelineSample
from repro.obs.profiler import CallbackStats, ProfileReport, SimulationProfiler
from repro.obs.sinks import FilteredSink, JsonlSink
from repro.obs.spans import PacketFlight, SpanHop, assemble_flights
from repro.obs.stream import (
    ReservoirSampler,
    StreamStats,
    StreamingHistogram,
    Welford,
)

__all__ = [
    "CallbackStats",
    "FilteredSink",
    "JsonlSink",
    "LiveRunMonitor",
    "LiveSweepMonitor",
    "PacketFlight",
    "ProfileReport",
    "ReservoirSampler",
    "RunManifest",
    "SimulationProfiler",
    "SpanHop",
    "StreamStats",
    "StreamingHistogram",
    "TelemetryWriter",
    "TimelineRecorder",
    "TimelineSample",
    "Welford",
    "config_hash",
]
