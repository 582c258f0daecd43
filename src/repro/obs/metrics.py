"""Runtime metrics: periodic timeline snapshots.

:class:`TimelineRecorder`, handed to :meth:`repro.network.Network.run`
as an observer, is called on a fixed virtual-time period (the engine's
restartable ``run()`` makes this free) and snapshots per-node residual
energy, the awake fraction, total MAC queue depth and the engine's queue
gauges.  The
timeline is exported alongside ``RunMetrics.to_dict()`` by the CLI's
``--json-out``.

Samples land in preallocated numpy columns, not Python object lists:
one ``(capacity, scalars)`` block plus two lazily allocated
``(capacity, num_nodes)`` blocks for per-node energy/residual.  When the
buffer fills, the recorder decimates 2:1 (keeping even-index samples)
and doubles its sampling stride, so an arbitrarily long run occupies
O(capacity × num_nodes) bytes and the retained samples stay uniformly
spaced.  The decimation is a pure function of the observe-call count —
no wall clock, no randomness — so timelines remain deterministic and
safe to diff across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from repro.network import Network


@dataclass(frozen=True)
class TimelineSample:
    """One periodic snapshot of simulation state."""

    time: float
    #: energy consumed per node so far (J)
    node_energy: Tuple[float, ...]
    #: remaining battery fraction per node (1.0 when unbounded)
    node_residual: Tuple[float, ...]
    #: nodes whose radio is currently awake
    awake_nodes: int
    #: awake_nodes / num_nodes
    awake_fraction: float
    #: summed MAC-layer queue depth across nodes
    queue_depth: int
    #: live (non-cancelled) events in the engine heap
    pending_events: int
    #: events fired so far
    processed_events: int
    #: events cancelled before firing so far
    cancelled_events: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict."""
        return {
            "time": self.time,
            "node_energy": list(self.node_energy),
            "node_residual": list(self.node_residual),
            "awake_nodes": self.awake_nodes,
            "awake_fraction": self.awake_fraction,
            "queue_depth": self.queue_depth,
            "pending_events": self.pending_events,
            "processed_events": self.processed_events,
            "cancelled_events": self.cancelled_events,
        }


#: Scalar columns of the timeline block, in storage order.
_SCALAR_COLUMNS = ("time", "awake_nodes", "awake_fraction", "queue_depth",
                   "pending_events", "processed_events", "cancelled_events")


class TimelineRecorder:
    """Collect :class:`TimelineSample` snapshots on a fixed period.

    Use as the ``observer`` of :meth:`repro.network.Network.run`::

        recorder = TimelineRecorder()
        network.run(observer=recorder.observe,
                    observe_period=recorder.period or None)

    Storage is columnar and bounded: scalar columns live in one
    preallocated ``(capacity, 7)`` float64 block, per-node energy and
    residual in two ``(capacity, num_nodes)`` blocks allocated on the
    first observation.  When ``capacity`` samples have accumulated the
    recorder drops every odd-index sample and doubles its stride, so it
    then records every 2nd (4th, 8th, …) observer call — memory is
    O(capacity × num_nodes) regardless of run length, and the kept
    samples remain uniformly spaced at ``period × stride``.
    """

    def __init__(self, period: float = 0.0, capacity: int = 1024) -> None:
        if period < 0:
            raise ValueError(f"period must be >= 0, got {period!r}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity!r}")
        #: requested sampling period (0 = caller picks the default)
        self.period = period
        self.capacity = capacity
        #: current decimation stride: 1 = every observe call is recorded
        self.stride = 1
        self._tick = 0
        self._count = 0
        self._scalars: NDArray[np.float64] = np.zeros(
            (capacity, len(_SCALAR_COLUMNS)))
        self._energy: Optional[NDArray[np.float64]] = None
        self._residual: Optional[NDArray[np.float64]] = None

    def observe(self, network: "Network") -> None:
        """Snapshot ``network`` now (or skip, per the current stride)."""
        tick = self._tick
        self._tick = tick + 1
        if tick % self.stride:
            return
        if self._count == self.capacity:
            self._decimate()
        sim = network.sim
        now = sim.now
        num_nodes = len(network.nodes)
        if self._energy is None or self._residual is None:
            self._energy = np.zeros((self.capacity, num_nodes))
            self._residual = np.zeros((self.capacity, num_nodes))
        row = self._count
        for col, node in enumerate(network.nodes):
            self._energy[row, col] = node.radio.meter.energy_joules(now)
            self._residual[row, col] = node.radio.meter.remaining_fraction(now)
        awake = sum(1 for n in network.nodes if n.radio.is_awake)
        self._scalars[row] = (
            now,
            awake,
            awake / num_nodes if num_nodes else 0.0,
            sum(n.mac.queue_depth for n in network.nodes),
            sim.pending_events,
            sim.processed_events,
            sim.cancelled_events,
        )
        self._count = row + 1

    def _decimate(self) -> None:
        """Keep even-index samples, double the stride (2:1 downsample)."""
        kept = (self._count + 1) // 2
        self._scalars[:kept] = self._scalars[0:self._count:2]
        if self._energy is not None:
            self._energy[:kept] = self._energy[0:self._count:2]
        if self._residual is not None:
            self._residual[:kept] = self._residual[0:self._count:2]
        self._count = kept
        self.stride *= 2

    @property
    def samples(self) -> List[TimelineSample]:
        """Materialize the retained samples (export path only)."""
        out: List[TimelineSample] = []
        for row in range(self._count):
            scalars = self._scalars[row]
            energy: Tuple[float, ...] = (
                tuple(float(v) for v in self._energy[row])
                if self._energy is not None else ())
            residual: Tuple[float, ...] = (
                tuple(float(v) for v in self._residual[row])
                if self._residual is not None else ())
            out.append(TimelineSample(
                time=float(scalars[0]),
                node_energy=energy,
                node_residual=residual,
                awake_nodes=int(scalars[1]),
                awake_fraction=float(scalars[2]),
                queue_depth=int(scalars[3]),
                pending_events=int(scalars[4]),
                processed_events=int(scalars[5]),
                cancelled_events=int(scalars[6]),
            ))
        return out

    @property
    def nbytes(self) -> int:
        """Bytes held by the columnar blocks (for memory accounting)."""
        total = int(self._scalars.nbytes)
        if self._energy is not None:
            total += int(self._energy.nbytes)
        if self._residual is not None:
            total += int(self._residual.nbytes)
        return total

    def __len__(self) -> int:
        return self._count

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of the recorded timeline."""
        return {
            "period": self.period,
            "samples": [s.to_dict() for s in self.samples],
        }


__all__ = [
    "TimelineSample",
    "TimelineRecorder",
]
