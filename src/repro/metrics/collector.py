"""Run-time metric collection and the end-of-run summary.

The collector is shared by all nodes; the routing and traffic layers feed
it events and the network harness finalizes it with the per-node energy
meters.  Everything the paper's evaluation section reports comes out of
:class:`RunMetrics`:

* total / per-node energy and its variance (Figs. 5, 6),
* packet delivery ratio and energy-per-bit (Fig. 7),
* average end-to-end delay and normalized routing overhead (Fig. 8),
* role numbers (Fig. 9).

Frontier compaction
-------------------
Historically the collector kept one ``_DataRecord`` per application
packet for the whole run, so memory grew O(packets).  Records are now
folded into running accumulators as soon as their outcome is settled,
walking the uid frontier strictly in origination order:

* a *delivered* head folds immediately;
* a *dropped* head folds once ``drop_grace_s`` of virtual time has
  passed since the drop — drops are not terminal in this stack (an
  ``ifq_overflow`` victim can be retransmitted and delivered seconds
  later), so the grace period lets late deliveries land first;
* an *in-flight* head blocks the frontier (packets resolve within the
  grace bound in practice) until the ``inflight_hold_s`` safety horizon.

Because Python's ``sum`` is a strict left fold and dict iteration is
insertion-ordered, folding in frontier order reproduces the batch-mode
``sum(delays)`` / ``drop_reasons`` insertion order exactly: the
finalized :class:`RunMetrics` is bit-identical to the retained-record
implementation.  Post-fold deliveries or re-drops (possible only past
the grace/hold horizons) are detected via a bounded recently-folded set
and counted in :attr:`MetricsCollector.compaction_conflicts`.

The same fold path feeds fixed-memory distribution aggregates
(:mod:`repro.obs.stream`) on every run: the delay and per-node
energy-per-bit summaries are the ``delay_dist`` / ``energy_per_bit_dist``
fields of :class:`RunMetrics`.  They draw only from private ``obs:*``
streams, so they change no other field and no trace record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set

import numpy as np
from numpy.typing import NDArray

from repro.metrics.role import RoleTracker
from repro.metrics.stats import sample_variance
from repro.obs.stream import StreamStats

#: Virtual seconds a dropped record lingers before folding.  Measured
#: drop→redelivery gaps on the seed workloads max out at ~16.5 s; 60 s
#: bounds the pending window at traffic_rate × 60 records.
DROP_GRACE_S = 60.0

#: Safety horizon for an in-flight frontier head.  Never reached on the
#: seed workloads (heads resolve within the drop grace); folding here
#: trades exactness for boundedness and is surfaced via
#: ``compaction_conflicts`` if a late delivery contradicts the fold.
INFLIGHT_HOLD_S = 600.0

#: Cap on the recently-folded-undelivered uid set used for conflict
#: detection.  It only grows when records fold undelivered, so in
#: healthy runs it tracks the drop tail; the cap keeps pathological
#: drop storms from reintroducing O(packets) memory.
_FOLDED_SET_CAP = 4096


@dataclass
class _DataRecord:
    uid: int
    src: int
    dst: int
    sent_at: float
    payload_bytes: int
    delivered_at: Optional[float] = None
    drop_reason: Optional[str] = None
    #: collector-clock timestamp of the (latest) drop, for grace aging
    dropped_at: float = 0.0


class MetricsCollector:
    """Event sink for one simulation run."""

    def __init__(self, num_nodes: int, seed: int = 0,
                 drop_grace_s: float = DROP_GRACE_S,
                 inflight_hold_s: float = INFLIGHT_HOLD_S) -> None:
        self.num_nodes = num_nodes
        self.roles = RoleTracker(num_nodes)
        #: unresolved packets only — settled records fold into the
        #: accumulators below, so this stays bounded by the in-flight
        #: window, not the run length
        self._data: Dict[int, _DataRecord] = {}
        #: per-hop transmissions by packet kind
        self.transmissions: Dict[str, int] = {
            "data": 0, "rreq": 0, "rrep": 0, "rerr": 0,
        }
        self.link_breaks = 0
        #: plain ints while running; the summary builds the int64 array
        self.overheard_by_node: List[int] = [0] * num_nodes
        self.drop_grace_s = drop_grace_s
        self.inflight_hold_s = inflight_hold_s
        #: outcome reversals observed after a record was folded (a
        #: delivery or re-drop arriving past the grace/hold horizon)
        self.compaction_conflicts = 0
        # -- fold accumulators (mirror batch finalize, left-fold order) --
        self._sent = 0
        self._n_delivered = 0
        self._delay_sum = 0.0
        self._delivered_bits = 0
        self._drop_counts: Dict[str, int] = {}
        self._clock = 0.0
        self._folded_undelivered: Set[int] = set()
        self._folded_order: Deque[int] = deque()
        # -- distribution aggregates (fixed memory) --
        self._delay_stats = StreamStats("delay", seed)

    # ------------------------------------------------------------------
    # Events (called by routing/traffic layers)
    # ------------------------------------------------------------------

    def data_originated(self, uid: int, src: int, dst: int, now: float,
                        payload_bytes: int) -> None:
        """Record an application packet entering the network."""
        if uid not in self._data:
            self._sent += 1
        self._data[uid] = _DataRecord(uid, src, dst, now, payload_bytes)
        if now > self._clock:
            self._clock = now
        self._advance_frontier()

    def data_delivered(self, uid: int, now: float) -> None:
        """Record end-to-end delivery (duplicates are ignored)."""
        if now > self._clock:
            self._clock = now
        record = self._data.get(uid)
        if record is None:
            if uid in self._folded_undelivered:
                self.compaction_conflicts += 1
            return
        if record.delivered_at is not None:
            return  # duplicate delivery: count once
        record.delivered_at = now
        self._advance_frontier()

    def data_dropped(self, uid: int, reason: str) -> None:
        """Record a drop with its reason (ignored after delivery)."""
        record = self._data.get(uid)
        if record is None:
            if uid in self._folded_undelivered:
                self.compaction_conflicts += 1
            return
        if record.delivered_at is not None:
            return
        record.drop_reason = reason
        record.dropped_at = self._clock
        self._advance_frontier()

    def transmission(self, kind: str) -> None:
        """Count one per-hop transmission of the given packet kind."""
        self.transmissions[kind] = self.transmissions.get(kind, 0) + 1

    def route_used(self, route: Sequence[int]) -> None:
        """Credit role numbers for a source route committed to data."""
        self.roles.record_route(route)

    def link_break(self) -> None:
        """Count one detected link break."""
        self.link_breaks += 1

    def overheard(self, node: int) -> None:
        """Count one promiscuously received packet at ``node``."""
        self.overheard_by_node[node] += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    @property
    def pending_records(self) -> int:
        """Unresolved records currently retained (bounded, not O(run))."""
        return len(self._data)

    def _advance_frontier(self) -> None:
        """Fold settled records from the head of the uid frontier.

        Folding strictly from the head keeps the fold order identical to
        batch mode's insertion-order iteration, which is what makes the
        running ``_delay_sum`` left fold and ``_drop_counts`` insertion
        order bit-compatible with the retained-record implementation.
        """
        data = self._data
        while data:
            record = next(iter(data.values()))
            if record.delivered_at is not None:
                self._fold_delivered(record)
            elif record.drop_reason is not None:
                if self._clock - record.dropped_at < self.drop_grace_s:
                    break  # late redelivery may still land
                self._fold_undelivered(record)
            else:
                if self._clock - record.sent_at < self.inflight_hold_s:
                    break  # genuinely in flight: blocks the frontier
                self._fold_undelivered(record)
            del data[record.uid]

    def _fold_delivered(self, record: _DataRecord) -> None:
        assert record.delivered_at is not None
        delay = record.delivered_at - record.sent_at
        self._n_delivered += 1
        self._delay_sum += delay
        self._delivered_bits += record.payload_bytes * 8
        self._delay_stats.push(delay)

    def _fold_undelivered(self, record: _DataRecord) -> None:
        reason = record.drop_reason or "in_flight"
        self._drop_counts[reason] = self._drop_counts.get(reason, 0) + 1
        self._folded_undelivered.add(record.uid)
        self._folded_order.append(record.uid)
        while len(self._folded_order) > _FOLDED_SET_CAP:
            self._folded_undelivered.discard(self._folded_order.popleft())

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(
        self,
        scheme: str,
        sim_time: float,
        node_energy: Sequence[float],
        node_awake_time: Sequence[float],
        events_processed: int = 0,
        fault_counts: Optional[Dict[str, int]] = None,
        overhear_decisions: int = 0,
        overhear_elections: int = 0,
        adaptive: Optional[Dict[str, Any]] = None,
    ) -> "RunMetrics":
        """Combine collected events with energy meters into a summary."""
        # Drain the frontier: at end of run every remaining record is
        # settled by fiat (undelivered ⇒ its drop reason, or in_flight).
        for record in self._data.values():
            if record.delivered_at is not None:
                self._fold_delivered(record)
            else:
                self._fold_undelivered(record)
        self._data.clear()
        sent = self._sent
        n_delivered = self._n_delivered
        energy = np.asarray(node_energy, dtype=float)
        total_energy = float(energy.sum())
        control = sum(self.transmissions.get(k, 0)
                      for k in ("rreq", "rrep", "rerr"))
        return RunMetrics(
            scheme=scheme,
            sim_time=sim_time,
            num_nodes=self.num_nodes,
            data_sent=sent,
            data_delivered=n_delivered,
            pdr=(n_delivered / sent) if sent else 0.0,
            avg_delay=(float(self._delay_sum) / n_delivered
                       if n_delivered else 0.0),
            node_energy=energy,
            node_awake_time=np.asarray(node_awake_time, dtype=float),
            total_energy=total_energy,
            energy_variance=sample_variance(energy.tolist()),
            energy_per_bit=((total_energy / self._delivered_bits)
                            if self._delivered_bits else float("inf")),
            control_transmissions=control,
            transmissions=dict(self.transmissions),
            normalized_overhead=((control / n_delivered)
                                 if n_delivered else float("inf")),
            role_numbers=self.roles.counts(),
            link_breaks=self.link_breaks,
            overheard_by_node=np.array(self.overheard_by_node, dtype=np.int64),
            drop_reasons=dict(self._drop_counts),
            events_processed=events_processed,
            fault_counts=dict(fault_counts) if fault_counts else {},
            delay_dist=self._delay_stats.summary(),
            energy_per_bit_dist=self._energy_per_bit_summary(energy),
            compaction_conflicts=self.compaction_conflicts,
            overhear_decisions=overhear_decisions,
            overhear_elections=overhear_elections,
            adaptive=dict(adaptive) if adaptive is not None else None,
        )

    def _energy_per_bit_summary(
            self, energy: NDArray[np.float64]) -> Optional[Dict[str, Any]]:
        """Per-node energy-per-delivered-bit distribution.

        Each node's energy is divided by its fair share of delivered
        bits (``delivered_bits / num_nodes``), so the distribution mean
        matches the run-level ``energy_per_bit`` to floating-point
        accuracy.  ``None`` when nothing was delivered (the run-level
        value is infinite).
        """
        if not self._delivered_bits or not self.num_nodes:
            return None
        # Folded in node-id order — deterministic, like every stream here.
        stats = StreamStats("energy_per_bit", 0, reservoir_k=1)
        share = self._delivered_bits / self.num_nodes
        for value in energy:
            stats.push(float(value) / share)
        summary = stats.summary()
        del summary["reservoir"]  # node order is not a random sample
        return summary


@dataclass
class RunMetrics:
    """Summary of one simulation run (the paper's reported quantities)."""

    scheme: str
    sim_time: float
    num_nodes: int
    data_sent: int
    data_delivered: int
    pdr: float
    avg_delay: float
    node_energy: NDArray[np.float64]
    node_awake_time: NDArray[np.float64]
    total_energy: float
    energy_variance: float
    energy_per_bit: float
    control_transmissions: int
    transmissions: Dict[str, int]
    normalized_overhead: float
    role_numbers: NDArray[np.int64]
    link_breaks: int
    overheard_by_node: NDArray[np.int64]
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: engine events fired during the run — deterministic for a given
    #: (config, seed), unlike wall time, so it is safe in bit-identity tests
    events_processed: int = 0
    #: non-zero fault-injection counters (empty for fault-free runs)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: end-to-end delay distribution summary (:meth:`StreamStats.summary`)
    delay_dist: Dict[str, Any] = field(default_factory=dict)
    #: per-node energy-per-bit distribution; None when nothing was
    #: delivered (the run-level ``energy_per_bit`` is then infinite)
    energy_per_bit_dist: Optional[Dict[str, Any]] = None
    #: outcome reversals past the compaction horizon (0 in healthy runs)
    compaction_conflicts: int = 0
    #: receiver-side RANDOMIZED decisions drawn across all nodes
    overhear_decisions: int = 0
    #: decisions that elected to overhear (``overhears`` on the deciders)
    overhear_elections: int = 0
    #: adaptive-policy run summary (None on the fixed path — the three
    #: fields above then stay out of :meth:`to_dict`, keeping fixed-run
    #: exports byte-identical to pre-adaptive builds)
    adaptive: Optional[Dict[str, Any]] = None

    @property
    def empirical_overhear_rate(self) -> float:
        """Fraction of RANDOMIZED decisions that chose to overhear."""
        return (self.overhear_elections / self.overhear_decisions
                if self.overhear_decisions else 0.0)

    @property
    def mean_node_energy(self) -> float:
        """Average per-node energy in joules."""
        return float(self.node_energy.mean()) if self.node_energy.size else 0.0

    def sorted_node_energy(self) -> NDArray[np.float64]:
        """Per-node energy, ascending (the paper's Fig. 5 presentation)."""
        return np.sort(self.node_energy)

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"{self.scheme}: E={self.total_energy:.1f}J "
            f"var={self.energy_variance:.1f} PDR={self.pdr * 100:.1f}% "
            f"delay={self.avg_delay * 1e3:.1f}ms "
            f"EPB={self.energy_per_bit * 1e6:.2f}uJ/bit "
            f"ovh={self.normalized_overhead:.2f}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of this run (vectors as lists, inf as None)."""

        def safe(value: float) -> Optional[float]:
            """None for non-finite values (JSON has no inf)."""
            return None if not np.isfinite(value) else float(value)

        return {
            "scheme": self.scheme,
            "sim_time": self.sim_time,
            "num_nodes": self.num_nodes,
            "data_sent": self.data_sent,
            "data_delivered": self.data_delivered,
            "pdr": safe(self.pdr),
            "avg_delay": safe(self.avg_delay),
            "total_energy": safe(self.total_energy),
            "energy_variance": safe(self.energy_variance),
            "energy_per_bit": safe(self.energy_per_bit),
            "control_transmissions": self.control_transmissions,
            "transmissions": dict(self.transmissions),
            "normalized_overhead": safe(self.normalized_overhead),
            "link_breaks": self.link_breaks,
            "drop_reasons": dict(self.drop_reasons),
            "events_processed": self.events_processed,
            "node_energy": [float(v) for v in self.node_energy],
            "node_awake_time": [float(v) for v in self.node_awake_time],
            "role_numbers": [int(v) for v in self.role_numbers],
        } | ({"fault_counts": dict(self.fault_counts)}
             if self.fault_counts else {}) \
          | {"delay_dist": self.delay_dist} \
          | ({"energy_per_bit_dist": self.energy_per_bit_dist}
             if self.energy_per_bit_dist is not None else {}) \
          | ({"compaction_conflicts": self.compaction_conflicts}
             if self.compaction_conflicts else {}) \
          | ({"overhear_decisions": self.overhear_decisions,
              "overhear_elections": self.overhear_elections,
              "empirical_overhear_rate": self.empirical_overhear_rate,
              "adaptive": dict(self.adaptive)}
             if self.adaptive is not None else {})


__all__ = ["MetricsCollector", "RunMetrics",
           "DROP_GRACE_S", "INFLIGHT_HOLD_S"]
