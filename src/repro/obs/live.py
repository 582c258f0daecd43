"""Live progress rendering and machine-readable telemetry feeds.

Two monitors, one per execution shape:

* :class:`LiveRunMonitor` — an observer for
  :meth:`repro.network.Network.run`: renders an in-place status line
  (virtual time, progress %, events/sec, wall-clock ETA, pending
  collector records, fault counts) every observation tick.
* :class:`LiveSweepMonitor` — a
  :data:`~repro.experiments.parallel.ProgressCallback`: consumes the
  sweep engine's ``cell-start`` / ``rep-finish`` / ``cell-finish`` /
  ``grid-finish`` events into a replication-level progress line with
  aggregate events/sec, ETA, worker utilization and fault counts.

Both can tee every update into a :class:`TelemetryWriter` JSONL feed
(``--telemetry-out``) for machine consumers — dashboards, notebooks, CI
artifact scrapers.

This module reads the wall clock (`time.perf_counter`) to rate-limit
rendering and compute ev/s and ETA.  That is the legitimate wall-clock
use — progress reporting to a human — and never feeds back into
simulated behaviour; the module is on the rcast-lint R002 allowlist for
exactly this reason.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Dict, Optional, Union

from repro.constants import LIVE_RENDER_INTERVAL_S

if TYPE_CHECKING:
    from repro.experiments.parallel import ProgressEvent, RunnerStats
    from repro.network import Network

PathLike = Union[str, Path]


class TelemetryWriter:
    """Append-only JSONL feed of telemetry records.

    One JSON object per line, flushed per write so external consumers
    can tail the file while the run is still going.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        self._handle: Optional[IO[str]] = self._path.open("w")
        self.written = 0

    @property
    def path(self) -> Path:
        """Destination file."""
        return self._path

    def write(self, record: Dict[str, Any]) -> None:
        """Append one telemetry record (no-op after close)."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(record))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Flush and close the feed (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _StatusLine:
    """Rate-limited single-line status renderer.

    On a TTY the line redraws in place (carriage return, space-padded to
    cover the previous render); on a pipe each rendered update is a full
    line, so CI logs stay readable.  Updates are dropped unless
    ``LIVE_RENDER_INTERVAL_S`` wall seconds have passed since the last
    render (forced updates always render).
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._last_render = float("-inf")
        self._last_width = 0
        self._is_tty = bool(getattr(self._stream, "isatty", lambda: False)())

    def update(self, line: str, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_render < LIVE_RENDER_INTERVAL_S:
            return
        self._last_render = now
        if self._is_tty:
            padded = line.ljust(self._last_width)
            self._last_width = len(line)
            self._stream.write(f"\r{padded}")
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def finish(self) -> None:
        """Terminate the in-place line (TTY only)."""
        if self._is_tty and self._last_width:
            self._stream.write("\n")
            self._stream.flush()


def format_grid_summary(stats: "RunnerStats") -> str:
    """``N runs in X s on W workers (utilization U%)``: one finished table."""
    return (f"{stats.items} runs in {stats.elapsed:.1f}s on {stats.workers} "
            f"workers (utilization {stats.utilization * 100:.0f}%)")


def _format_faults(fault_counts: Dict[str, int]) -> str:
    if not fault_counts:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(fault_counts.items()))
    return f" faults[{inner}]"


class LiveRunMonitor:
    """In-place progress line for a single simulation run.

    Use as (part of) the ``observer`` of :meth:`Network.run`; call
    :meth:`finish` after the run returns to terminate the line.
    """

    def __init__(self, sim_time: float, stream: Optional[IO[str]] = None,
                 telemetry: Optional[TelemetryWriter] = None) -> None:
        if sim_time <= 0:
            raise ValueError(f"sim_time must be positive, got {sim_time!r}")
        self._sim_time = sim_time
        self._status = _StatusLine(stream)
        self._telemetry = telemetry
        self._started = time.perf_counter()

    def observe(self, network: "Network") -> None:
        """Render one progress update from the network's current state."""
        now = network.sim.now
        wall = time.perf_counter() - self._started
        events = network.sim.processed_events
        frac = min(now / self._sim_time, 1.0)
        ev_per_sec = events / wall if wall > 0 else 0.0
        eta = (wall * (1.0 - frac) / frac) if frac > 0 else float("inf")
        faults = (network.faults.fault_counts()
                  if network.faults is not None else {})
        line = (
            f"t={now:8.1f}/{self._sim_time:.0f}s ({frac * 100:5.1f}%) "
            f"{events:,} ev  {ev_per_sec:,.0f} ev/s  "
            f"eta {eta:5.0f}s  pending={network.metrics.pending_records}"
            f"{_format_faults(faults)}"
        )
        self._status.update(line, force=frac >= 1.0)
        if self._telemetry is not None:
            self._telemetry.write({
                "kind": "run-tick",
                "virtual_time": now,
                "progress": frac,
                "wall_time": wall,
                "events_processed": events,
                "events_per_sec": ev_per_sec,
                "pending_records": network.metrics.pending_records,
                "fault_counts": faults,
            })

    def finish(self) -> None:
        """Terminate the status line."""
        self._status.finish()


class LiveSweepMonitor:
    """Replication-level progress line for sweep / figure grids.

    Pass as the runner's ``on_event`` callback.  ``rep-finish`` events
    carry a :class:`~repro.obs.manifest.RunManifest`, which provides the
    aggregate events/sec and fault totals; ``grid-finish`` renders the
    final line with worker utilization.
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 telemetry: Optional[TelemetryWriter] = None) -> None:
        self._status = _StatusLine(stream)
        self._telemetry = telemetry
        self._events = 0
        self._faults: Dict[str, int] = {}
        self._last_cell = ""

    def __call__(self, event: "ProgressEvent") -> None:
        if event.kind == "cell-start":
            self._last_cell = str(event.cell)
        manifest = event.manifest
        if event.kind == "rep-finish" and manifest is not None:
            self._events += manifest.events_processed
            for name, count in (manifest.fault_counts or {}).items():
                self._faults[name] = self._faults.get(name, 0) + count
        completed, total = event.completed_items, event.total_items
        elapsed = event.elapsed
        ev_per_sec = self._events / elapsed if elapsed > 0 else 0.0
        eta = ((elapsed / completed) * (total - completed)
               if completed else float("inf"))
        if event.kind == "grid-finish" and event.stats is not None:
            line = (
                f"[{completed}/{total}] {format_grid_summary(event.stats)}  "
                f"{ev_per_sec:,.0f} ev/s{_format_faults(self._faults)}"
            )
            self._status.update(line, force=True)
            self._status.finish()
        else:
            line = (
                f"[{completed}/{total}] {self._last_cell}  "
                f"{ev_per_sec:,.0f} ev/s  eta {eta:5.0f}s"
                f"{_format_faults(self._faults)}"
            )
            self._status.update(line)
        if self._telemetry is not None:
            record: Dict[str, Any] = {
                "kind": event.kind,
                "cell": None if event.cell is None else str(event.cell),
                "completed_items": completed,
                "total_items": total,
                "elapsed": elapsed,
                "events_per_sec": ev_per_sec,
            }
            if manifest is not None:
                record["manifest"] = manifest.to_dict()
            if event.stats is not None:
                record["utilization"] = event.stats.utilization
                record["workers"] = event.stats.workers
            self._telemetry.write(record)


__all__ = [
    "LiveRunMonitor",
    "LiveSweepMonitor",
    "TelemetryWriter",
    "format_grid_summary",
]
