"""The determinism sanitizer proper: hooks, findings, report, diff.

:class:`DeterminismSanitizer` attaches to a built
:class:`~repro.network.Network` just before the run and detaches after,
leaving a :class:`SanitizerReport`.  It piggybacks on two existing seams —
the engine's fire interceptor and the RNG registry's stream cache — so the
simulator core needs no sanitizer-specific branches in its hot loops.

Findings are emitted as ``sanitizer`` trace records the moment they are
detected (so a JSONL trace interleaves them with the protocol events that
triggered them) and collected in the report.  Statistics that are *normal*
— e.g. same-``(time, priority)`` ties, which every beacon boundary
produces by design — are counted, not flagged; findings are reserved for
invariant violations.
"""

from __future__ import annotations

import json
import random as _global_random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizer.ledger import (
    LEDGER_HASH_SEED,
    StreamLedger,
    mix_hash,
)

if TYPE_CHECKING:
    from repro.network import Network
    from repro.sim.events import Event

#: Version of the sanitizer JSON report schema.
REPORT_SCHEMA_VERSION = 2

#: Events between canary samples.  The canaries walk live container state,
#: so sampling every pop would dominate the run; every 4096th event keeps
#: the overhead noise-level while still taking hundreds of samples on a
#: bench-scale workload.
CANARY_INTERVAL = 4096


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime determinism violation."""

    kind: str
    time: float
    node: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {"kind": self.kind, "time": self.time, "node": self.node,
                "detail": self.detail}


@dataclass
class SanitizerReport:
    """Everything one sanitized run observed; diffable across runs."""

    scheme: str = ""
    seed: int = 0
    events: int = 0
    tied_events: int = 0
    canary_samples: int = 0
    canary_digest: str = ""
    global_random_moved: bool = False
    streams: Dict[str, Dict[str, object]] = field(default_factory=dict)
    findings: List[SanitizerFinding] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (stable key order for byte-diffing)."""
        return {
            "version": REPORT_SCHEMA_VERSION,
            "scheme": self.scheme,
            "seed": self.seed,
            "events": self.events,
            "tied_events": self.tied_events,
            "canary_samples": self.canary_samples,
            "canary_digest": self.canary_digest,
            "global_random_moved": self.global_random_moved,
            "streams": {name: dict(entry)
                        for name, entry in sorted(self.streams.items())},
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def diff_reports(first: SanitizerReport,
                 second: SanitizerReport) -> List[str]:
    """Human-readable divergences between two same-seed reports.

    Empty list = the two runs drew identically, popped identically, and
    walked their hot-path containers identically.  Each entry names the
    stream (or detector) that diverged — this is the "which stream broke"
    answer the golden-trace byte-diff cannot give.
    """
    diffs: List[str] = []
    if first.events != second.events:
        diffs.append(f"events processed: {first.events} vs {second.events}")
    if first.tied_events != second.tied_events:
        diffs.append(f"tied events: {first.tied_events} "
                     f"vs {second.tied_events}")
    names = sorted(set(first.streams) | set(second.streams))
    for name in names:
        a, b = first.streams.get(name), second.streams.get(name)
        if a is None or b is None:
            diffs.append(f"stream {name!r}: present in only one run")
            continue
        if a["draws"] != b["draws"]:
            diffs.append(f"stream {name!r}: {a['draws']} vs {b['draws']} "
                         "draws")
        elif a["digest"] != b["digest"]:
            diffs.append(f"stream {name!r}: equal draw count but value "
                         f"digests differ ({a['digest']} vs {b['digest']})")
    if first.canary_digest != second.canary_digest:
        diffs.append("canary order-signature digests differ "
                     f"({first.canary_digest} vs {second.canary_digest})")
    for report, tag in ((first, "first"), (second, "second")):
        if report.global_random_moved:
            diffs.append(f"{tag} run drew from the process-global random "
                         "module")
    return diffs


class DeterminismSanitizer:
    """Attach/detach lifecycle around one :meth:`Network.run`."""

    def __init__(self) -> None:
        self._network: Optional["Network"] = None
        self._ledgers: List[StreamLedger] = []
        self._findings: List[SanitizerFinding] = []
        self._baseline_processed = 0
        #: Hot-loop state cell shared with the interceptor closure:
        #: ``[last_key, canary_countdown, tied_count]``.  A list the closure
        #: indexes is measurably cheaper than ``self._x`` lookups on a path
        #: that runs once per event.
        self._hot: List[object] = [(-float("inf"), 0, -1), CANARY_INTERVAL, 0]
        self._canary_digest = LEDGER_HASH_SEED
        self._canary_samples = 0
        self._global_state: object = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Install the ledgers and the fire interceptor on ``network``.

        Must run after :func:`~repro.network.build_network` (every stream
        the build derived is already cached in the registry) and before
        :meth:`Network.run`.
        """
        if self._network is not None:
            raise RuntimeError("sanitizer already attached")
        self._network = network
        for name, rng in network.rngs.streams().items():
            ledger = StreamLedger(name)
            ledger.instrument(rng)
            self._ledgers.append(ledger)
        self._global_state = _global_random.getstate()  # rcast-lint: disable=R001 -- reads (never draws) global state to detect stray draws
        self._baseline_processed = network.sim.processed_events
        network.sim.set_fire_interceptor(self._build_interceptor())

    def detach(self) -> SanitizerReport:
        """Remove all hooks and return the run's report."""
        network = self._network
        if network is None:
            raise RuntimeError("sanitizer not attached")
        network.sim.set_fire_interceptor(None)
        report = SanitizerReport(
            scheme=network.config.scheme,
            seed=network.config.seed,
            events=network.sim.processed_events - self._baseline_processed,
            tied_events=int(self._hot[2]),  # type: ignore[call-overload]
            canary_samples=self._canary_samples,
            canary_digest=f"{self._canary_digest:016x}",
            global_random_moved=(
                _global_random.getstate()  # rcast-lint: disable=R001 -- state comparison, not a draw
                != self._global_state
            ),
            streams={ledger.name: ledger.to_dict()
                     for ledger in self._ledgers},
            findings=list(self._findings),
        )
        if report.global_random_moved:
            self._record(
                "global-random-draw", network.sim.now, -1,
                "process-global random state advanced during the run; "
                "some code path draws outside the RngRegistry",
                emit=True,
            )
            report.findings = list(self._findings)
        for ledger in self._ledgers:
            ledger.restore()
        self._network = None
        return report

    # ------------------------------------------------------------------
    # Hot-path hooks
    # ------------------------------------------------------------------

    def _build_interceptor(self) -> "Callable[[Event], None]":
        """Build the per-event hook as a tight closure.

        The engine inlines ``Event.fire`` on its no-hook fast path, so
        every cycle the hook spends is pure sanitizer overhead; on a
        bench workload the hook runs a few hundred thousand times.  The
        closure keeps its mutable state in the ``self._hot`` list cell
        (one C index op instead of an attribute dict probe), defers every
        rare case to out-of-line methods, and dispatches the callback
        inline — replicating ``Event.fire`` exactly, per the interceptor
        contract — so the common tie-free pop costs a single Python frame.
        """
        hot = self._hot
        interval = CANARY_INTERVAL
        sample = self._sample_canaries
        anomaly = self._note_anomaly

        def intercept(event: "Event") -> None:
            key = event._key
            last = hot[0]
            hot[0] = key
            if key[0] == last[0]:  # type: ignore[index]
                if key[1] == last[1]:  # type: ignore[index]
                    # Same (time, priority): normal — every beacon
                    # boundary ties; the monotonic seq keeps it
                    # deterministic.  Counted, not flagged.
                    hot[2] += 1  # type: ignore[operator]
                    if key[2] == last[2]:  # type: ignore[index]
                        anomaly("tie-key-collision", key, last)
            elif key[0] < last[0]:  # type: ignore[index]
                anomaly("clock-regression", key, last)
            countdown = hot[1] - 1  # type: ignore[operator]
            hot[1] = countdown
            if not countdown:
                hot[1] = interval
                sample()
            # Inlined Event.fire() (interceptor contract: dispatch the
            # popped event exactly once).
            event.fired = True
            event.callback(*event.args)

        return intercept

    def _note_anomaly(self, kind: str, key: Tuple[float, int, int],
                      last: object) -> None:
        """Out-of-line slow path for interceptor findings."""
        if kind == "tie-key-collision":
            # A full-key duplicate — which the engine's monotonic seq
            # makes impossible unless something forged an Event.
            self._record(kind, key[0], -1,
                         f"two events popped with identical key {key!r}")
        else:
            self._record(kind, key[0], -1,
                         f"popped t={key[0]!r} after t={last[0]!r}")  # type: ignore[index]

    def _sample_canaries(self) -> None:
        """Fold hot-path container order into the canary digest.

        The channel wakes waiters through ``sorted(...)`` and delivers in
        ascending node order, so insertion-order drift in its dicts is
        *masked* in a single run — but it is still a symptom of divergent
        execution, so the raw iteration order is hashed here and caught by
        ``--sanitize-compare``.  The neighbor-table probe checks the one
        ordering invariant the MAC/DCF hot path consumes directly.
        """
        network = self._network
        assert network is not None
        sim_now = network.sim.now
        digest = self._canary_digest
        # Iteration-order signatures (private structures, read-only walk).
        for node_id in network.channel._idle_waiters:
            digest = mix_hash(digest, node_id)
        digest = mix_hash(digest, -1)
        for tx_id in network.channel._active:
            digest = mix_hash(digest, tx_id)
        digest = mix_hash(digest, -2)
        # Waiter busy-count invariant (counting channel wake): every
        # registered idle waiter's incrementally-maintained audible set
        # must agree with a from-scratch ``is_busy`` probe — non-empty
        # exactly when busy — and the ready set must mirror emptiness.
        # ``is_busy`` may lazily refresh positions, which rebuilds the
        # sets via the refresh listener before returning, so the
        # comparison always sees one snapshot; re-read the set after.
        channel = network.channel
        waiter_txs = getattr(channel, "_waiter_txs", None)
        if waiter_txs is not None:
            ready = channel._ready_waiters
            for node_id in channel._idle_waiters:
                if node_id not in waiter_txs:
                    self._record("waiter-count-desync", sim_now, node_id,
                                 "idle waiter has no busy-count entry")
                    continue
                busy = channel.is_busy(node_id)
                audible = waiter_txs[node_id]
                if bool(audible) != busy or (node_id in ready) == bool(audible):
                    self._record(
                        "waiter-count-desync", sim_now, node_id,
                        f"busy-count {len(audible)} "
                        f"(ready={node_id in ready}) vs is_busy()={busy}",
                    )
        probe = self._canary_samples % len(network.nodes)
        digest = mix_hash(digest, network.nodes[probe].mac.queue_depth)
        neighbors = network.positions.sorted_neighbors(probe)
        if any(a >= b for a, b in zip(neighbors, neighbors[1:])):
            self._record(
                "unsorted-neighbors", sim_now, probe,
                f"sorted_neighbors({probe}) is not strictly ascending: "
                f"{neighbors[:8]!r}...",
            )
        self._canary_digest = digest
        self._canary_samples += 1

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------

    def _record(self, kind: str, time: float, node: int, detail: str,
                emit: bool = True) -> None:
        self._findings.append(SanitizerFinding(kind, time, node, detail))
        network = self._network
        if emit and network is not None and network.trace.enabled:
            network.trace.emit(time, "sanitizer", node, kind, detail=detail)


__all__ = [
    "CANARY_INTERVAL",
    "DeterminismSanitizer",
    "REPORT_SCHEMA_VERSION",
    "SanitizerFinding",
    "SanitizerReport",
    "diff_reports",
]
