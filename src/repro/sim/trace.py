"""Structured trace records and the in-process trace sinks.

The simulator core never prints.  Components emit typed records —
``(time, category, node, event, **fields)`` — into a trace sink when one is
attached; tests attach a :class:`TraceLog` to assert on protocol behaviour,
and the CLI can stream records to JSONL for offline analysis (see
:mod:`repro.obs.sinks`).  By default tracing is disabled (a
:class:`NullTrace` is used), which costs a single attribute lookup plus a
short-circuited ``if`` per emission point.

Categories name the emitting subsystem (``atim``, ``psm``, ``odpm``,
``dsr``, ``dcf``, ``chan``, ``energy``); the ``event`` names what happened
inside it; ``fields`` carry the typed key/value payload.  Field values must
be JSON-representable scalars (str/int/float/bool/None) so records
serialize deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

#: One typed key/value payload entry (kept as a tuple so records hash).
FieldItems = Tuple[Tuple[str, object], ...]

#: Every category an emission point may use.  The CLI validates
#: ``--trace-categories`` against this set so a typo fails fast instead of
#: silently producing an empty trace.
TRACE_CATEGORIES: Tuple[str, ...] = (
    "adaptive", "atim", "chan", "dcf", "dsr", "energy", "fault", "odpm",
    "psm", "sanitizer",
)


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace record."""

    time: float
    category: str
    node: int
    event: str
    fields: FieldItems = ()

    def get(self, key: str, default: object = None) -> object:
        """Value of payload field ``key`` (or ``default``)."""
        for name, value in self.fields:
            if name == key:
                return value
        return default

    @property
    def detail(self) -> str:
        """Rendered ``event k=v ...`` payload (legacy one-line form)."""
        if not self.fields:
            return self.event
        kv = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.event} {kv}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict with a stable key order."""
        return {
            "time": self.time,
            "category": self.category,
            "node": self.node,
            "event": self.event,
            "fields": {k: v for k, v in self.fields},
        }

    def to_json(self) -> str:
        """One deterministic JSON line (same record -> same bytes)."""
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          sort_keys=False, default=str)

    def __str__(self) -> str:
        return (f"{self.time:12.6f} [{self.category:>8}] "
                f"n{self.node:<4} {self.detail}")


class TraceSink(Protocol):
    """Structural interface every trace sink provides.

    Emission points check ``enabled`` before assembling the field payload
    so a disabled sink costs one attribute lookup, not a dict build.
    """

    @property
    def enabled(self) -> bool: ...  # noqa: D102

    def emit(self, time: float, category: str, node: int, event: str,
             **fields: object) -> None: ...  # noqa: D102


def matches(
    record: TraceRecord,
    category: Optional[str] = None,
    node: Optional[int] = None,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
) -> bool:
    """Shared record predicate used by :meth:`TraceLog.filter` and sinks.

    ``t_min``/``t_max`` bound the record time (both inclusive, either open).
    """
    if category is not None and record.category != category:
        return False
    if node is not None and record.node != node:
        return False
    if t_min is not None and record.time < t_min:
        return False
    if t_max is not None and record.time > t_max:
        return False
    return True


class TraceLog:
    """In-memory trace collector with filtering helpers.

    Wrap it in :class:`repro.obs.sinks.FilteredSink` to keep only some
    categories.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    @property
    def enabled(self) -> bool:
        """Trace sinks report enabled=True; NullTrace reports False."""
        return True

    def emit(self, time: float, category: str, node: int, event: str,
             **fields: object) -> None:
        """Record a trace event."""
        self._records.append(
            TraceRecord(time, category, node, event, tuple(fields.items()))
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records matching the category/node/time-window constraints."""
        return [rec for rec in self._records
                if matches(rec, category, node, t_min, t_max)]

    def dump(self) -> str:
        """Render all records, one per line."""
        return "\n".join(str(rec) for rec in self._records)


class NullTrace:
    """No-op trace sink used when tracing is disabled."""

    enabled = False

    def emit(self, time: float, category: str, node: int, event: str,
             **fields: object) -> None:
        """Discard the record."""


#: Shared singleton used as the default trace sink.
NULL_TRACE = NullTrace()

__all__ = [
    "FieldItems",
    "TRACE_CATEGORIES",
    "TraceRecord",
    "TraceSink",
    "TraceLog",
    "NullTrace",
    "NULL_TRACE",
    "matches",
]
