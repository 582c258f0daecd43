"""Pluggable trace sinks for the structured trace stream.

All sinks implement the :class:`~repro.sim.trace.TraceSink` protocol —
``enabled`` plus ``emit(time, category, node, event, **fields)`` — so any of
them can be handed to :func:`repro.network.build_network` (or composed via
:class:`FilteredSink`) wherever a :class:`~repro.sim.trace.TraceLog` is
accepted today.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from types import TracebackType
from typing import Iterable, List, Optional, TextIO, Type, Union

from repro.sim.trace import TraceRecord, TraceSink

PathLike = Union[str, Path]


class JsonlSink:
    """Stream trace records to a JSONL file, one record per line.

    Lines are written through :meth:`TraceRecord.to_json`, which is
    deterministic: the same run with the same seed produces byte-identical
    output (the trace-determinism regression tests rely on this).  Use as a
    context manager, or call :meth:`close` explicitly.

    A path ending in ``.gz`` writes gzip-compressed output
    transparently.  With ``rotate_bytes`` set, the sink rolls to a new
    part once the current file holds that many (uncompressed) bytes:
    the full part is renamed ``<base>.<n><suffixes>`` (e.g.
    ``trace.00001.jsonl.gz``) and writing continues at ``path`` —
    rotation points depend only on record content, so same-seed runs
    rotate at identical records.
    """

    def __init__(self, path: PathLike,
                 rotate_bytes: Optional[int] = None) -> None:
        if rotate_bytes is not None and rotate_bytes <= 0:
            raise ValueError(
                f"rotate_bytes must be positive, got {rotate_bytes!r}")
        self._path = Path(path)
        self._rotate_bytes = rotate_bytes
        self._part_bytes = 0
        self._parts = 0
        self._handle: Optional[TextIO] = self._open(self._path)
        self._written = 0

    @staticmethod
    def _open(path: Path) -> TextIO:
        if path.suffix == ".gz":
            return gzip.open(path, "wt")
        return path.open("w")

    @property
    def enabled(self) -> bool:
        """True while the underlying file is open."""
        return self._handle is not None

    @property
    def path(self) -> Path:
        """Destination file (the currently active part)."""
        return self._path

    @property
    def written(self) -> int:
        """Number of records written so far (across all parts)."""
        return self._written

    def emit(self, time: float, category: str, node: int, event: str,
             **fields: object) -> None:
        """Serialize one record as a JSON line (rotating if due)."""
        if self._handle is None:
            return
        record = TraceRecord(time, category, node, event,
                             tuple(fields.items()))
        line = record.to_json()
        self._handle.write(line)
        self._handle.write("\n")
        self._written += 1
        self._part_bytes += len(line) + 1
        if (self._rotate_bytes is not None
                and self._part_bytes >= self._rotate_bytes):
            self._rotate()

    def _rotate(self) -> None:
        """Seal the active part under a numbered name, start a new one."""
        assert self._handle is not None
        self._handle.close()
        self._parts += 1
        suffix_str = "".join(self._path.suffixes)
        base = self._path.name[:len(self._path.name) - len(suffix_str)]
        part = self._path.with_name(f"{base}.{self._parts:05d}{suffix_str}")
        self._path.rename(part)
        self._handle = self._open(self._path)
        self._part_bytes = 0

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def read_jsonl(path: PathLike) -> List[TraceRecord]:
    """Load a JSONL trace file back into :class:`TraceRecord` objects.

    Paths ending in ``.gz`` are decompressed transparently, so traces
    written by a rotating/compressing :class:`JsonlSink` read back with
    the same call.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as handle:
            text = handle.read()
    else:
        text = path.read_text()
    records: List[TraceRecord] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        records.append(TraceRecord(
            time=float(data["time"]),
            category=str(data["category"]),
            node=int(data["node"]),
            event=str(data["event"]),
            fields=tuple(dict(data.get("fields", {})).items()),
        ))
    return records


class FilteredSink:
    """Forward only the records of the given ``categories`` to an inner sink."""

    def __init__(self, inner: TraceSink, categories: Iterable[str]) -> None:
        self._inner = inner
        self._categories = set(categories)

    @property
    def enabled(self) -> bool:
        """Enabled iff the wrapped sink is."""
        return self._inner.enabled

    def emit(self, time: float, category: str, node: int, event: str,
             **fields: object) -> None:
        """Forward the record iff its category is selected."""
        if category in self._categories:
            self._inner.emit(time, category, node, event, **fields)


__all__ = [
    "JsonlSink",
    "FilteredSink",
    "read_jsonl",
]
