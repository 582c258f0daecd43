"""Per-replication run manifests.

A :class:`RunManifest` records *how* a replication was produced — seed,
config hash, wall time, events processed — so exported results
(``--json-out``) are self-describing and benchmark trajectories can be
seeded from real measurements.  The config hash is a SHA-256 over the
canonical JSON encoding of the dataclass fields, so two configs hash
equal iff every field (including the nested fault plan) is equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.network import SimulationConfig


def config_hash(config: "SimulationConfig") -> str:
    """Stable short hash (16 hex chars) of a simulation config."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Provenance + cost record for one simulation run."""

    scheme: str
    seed: int
    config_hash: str
    #: wall-clock seconds for this replication (non-deterministic)
    wall_time: float
    #: events fired by the engine (deterministic for a given seed/config)
    events_processed: int
    #: grid coordinates when run under a sweep; None for standalone runs
    cell: Optional[str] = None
    rep: Optional[int] = None
    #: non-zero fault-injection counters; None for fault-free runs
    fault_counts: Optional[Dict[str, int]] = None

    @property
    def events_per_sec(self) -> float:
        """Engine throughput for this replication (0 if unmeasured)."""
        if self.wall_time <= 0:
            return 0.0
        return self.events_processed / self.wall_time

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (cell/rep omitted when not under a sweep)."""
        out: Dict[str, object] = {
            "scheme": self.scheme,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "wall_time": self.wall_time,
            "events_processed": self.events_processed,
            "events_per_sec": self.events_per_sec,
        }
        if self.cell is not None:
            out["cell"] = self.cell
        if self.rep is not None:
            out["rep"] = self.rep
        if self.fault_counts is not None:
            out["fault_counts"] = dict(self.fault_counts)
        return out


__all__ = ["RunManifest", "config_hash"]
