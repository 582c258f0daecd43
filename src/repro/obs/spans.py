"""Flight-recorder spans: end-to-end packet flights from trace records.

A *flight* is the full story of one application packet — originate,
route discovery, per-hop MAC attempts, delivery or drop — assembled
post-hoc from the structured trace stream.  No new emission points are
added (golden traces stay byte-identical); instead, existing records are
correlated:

* ``dsr tx`` records carry the packet ``uid`` and ``next_hop``, giving
  the hop chain directly;
* ``dcf tx_ok`` / ``tx_fail`` records carry only the frame summary
  (``"data/data 3->5 #42"``), so they are matched to hops FIFO per
  ``(node, next_hop, packet kind)`` — sound because the MAC transmit
  queue is FIFO and each hop creates a fresh frame;
* ``chan tx`` records share the frame id (``#42``) with the matched DCF
  record, yielding per-hop air time (summed over retries) and therefore
  transmit/receive energy at the awake power ``POWER_AWAKE_W`` that the
  energy meter bills every awake second at.

The assembler is heuristic where the trace is silent (origination time
is approximated by the discovery RREQ or first enqueue; a hop whose
frame died in the interface queue has no DCF record), but on the seed
workloads it reconstructs >99% of delivered packets' flights, which is
what the ``rcast-repro spans`` acceptance gate checks.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.constants import POWER_AWAKE_W, SEND_BUFFER_TIMEOUT_S
from repro.sim.trace import TraceRecord

PathLike = Union[str, Path]

#: Frame summary format produced by :meth:`repro.mac.frames.Frame.describe`.
_FRAME_RE = re.compile(r"^(\w+)/(\w+) (-?\d+)->(-?\d+) #(\d+)$")


@dataclass
class SpanHop:
    """One hop of a packet flight."""

    node: int
    next_hop: int
    #: virtual time the routing layer handed the packet to the MAC
    queued_at: float
    #: virtual time the MAC resolved the frame (ACK or final failure);
    #: None when no DCF record matched (e.g. interface-queue drop)
    resolved_at: Optional[float] = None
    #: MAC attempts spent on the frame (retries included)
    attempts: int = 0
    #: "ok" | "fail" | "lost" (no matching DCF record)
    outcome: str = "lost"
    #: summed on-air seconds across every attempt of the hop's frame
    air_time: float = 0.0

    @property
    def mac_latency(self) -> float:
        """Queue + contention + retry time at this hop (0 if unresolved)."""
        if self.resolved_at is None:
            return 0.0
        return self.resolved_at - self.queued_at

    @property
    def tx_energy(self) -> float:
        """Transmit energy spent on this hop (J), at the awake power the
        energy meter bills."""
        return self.air_time * POWER_AWAKE_W

    @property
    def rx_energy(self) -> float:
        """Unicast receive energy spent on this hop (J), at the awake
        power the energy meter bills."""
        return self.air_time * POWER_AWAKE_W

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict."""
        return {
            "node": self.node,
            "next_hop": self.next_hop,
            "queued_at": self.queued_at,
            "resolved_at": self.resolved_at,
            "attempts": self.attempts,
            "outcome": self.outcome,
            "air_time": self.air_time,
            "tx_energy": self.tx_energy,
            "rx_energy": self.rx_energy,
        }


@dataclass
class PacketFlight:
    """End-to-end span of one application packet."""

    uid: int
    src: int
    dst: int
    #: approximate origination time: the matched discovery RREQ if one
    #: preceded the first transmission, else the first enqueue
    originated_at: float
    #: "delivered" | "dropped" | "in_flight"
    status: str
    hops: List[SpanHop] = field(default_factory=list)
    #: virtual time of the triggering route-discovery RREQ (None if the
    #: route was served from cache)
    discovery_at: Optional[float] = None
    delivered_at: Optional[float] = None

    @property
    def discovery_latency(self) -> float:
        """Seconds from discovery RREQ to the first enqueue (0 if cached)."""
        if self.discovery_at is None or not self.hops:
            return 0.0
        return self.hops[0].queued_at - self.discovery_at

    @property
    def mac_latency(self) -> float:
        """Summed per-hop MAC latency (queueing + contention + retries)."""
        return sum(h.mac_latency for h in self.hops)

    @property
    def air_time(self) -> float:
        """Summed on-air seconds across all hops and retries."""
        return sum(h.air_time for h in self.hops)

    @property
    def energy(self) -> float:
        """Total transmit + unicast receive energy attributed (J)."""
        return sum(h.tx_energy + h.rx_energy for h in self.hops)

    @property
    def total_latency(self) -> Optional[float]:
        """Originate-to-delivery seconds (None unless delivered)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.originated_at

    @property
    def total_attempts(self) -> int:
        """MAC attempts summed over all hops."""
        return sum(h.attempts for h in self.hops)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict."""
        return {
            "uid": self.uid,
            "src": self.src,
            "dst": self.dst,
            "status": self.status,
            "originated_at": self.originated_at,
            "discovery_at": self.discovery_at,
            "delivered_at": self.delivered_at,
            "total_latency": self.total_latency,
            "discovery_latency": self.discovery_latency,
            "mac_latency": self.mac_latency,
            "air_time": self.air_time,
            "energy": self.energy,
            "attempts": self.total_attempts,
            "hops": [h.to_dict() for h in self.hops],
        }


@dataclass(frozen=True)
class _DcfEntry:
    time: float
    attempts: int
    frame_id: int
    ok: bool


def _fields(record: TraceRecord) -> Dict[str, Any]:
    return dict(record.fields)


def assemble_flights(records: Iterable[TraceRecord]) -> List[PacketFlight]:
    """Correlate trace records into per-packet flights, uid-ordered.

    ``records`` must cover the ``dsr`` category for the hop chains; the
    ``dcf`` and ``chan`` categories enrich hops with MAC outcomes and
    energy and enable delivery detection (a flight whose last hop has no
    matching ``tx_ok`` cannot be confirmed delivered).
    """
    hops_by_uid: Dict[int, List[Tuple[float, int, int]]] = {}
    rreqs_by_node: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}
    dcf_fifo: Dict[Tuple[int, int, str], Deque[_DcfEntry]] = {}
    air_by_frame: Dict[int, float] = {}
    forwarded_uids_by_node: Dict[int, Set[int]] = {}
    for record in records:
        if record.category == "dsr":
            f = _fields(record)
            if record.event == "tx" and f.get("kind") == "data":
                uid = int(f["uid"])
                hops_by_uid.setdefault(uid, []).append(
                    (record.time, record.node, int(f["next_hop"])))
                forwarded_uids_by_node.setdefault(record.node, set()).add(uid)
            elif record.event == "rreq":
                key = (record.node, int(f["target"]))
                rreqs_by_node.setdefault(key, []).append(
                    (record.time, int(f.get("attempt", 1))))
        elif record.category == "dcf" and record.event in ("tx_ok", "tx_fail"):
            f = _fields(record)
            parsed = _FRAME_RE.match(str(f.get("frame", "")))
            if parsed is None:
                continue
            _, pkt_kind, src, dst, frame_id = parsed.groups()
            dcf_fifo.setdefault((int(src), int(dst), pkt_kind),
                                deque()).append(_DcfEntry(
                                    time=record.time,
                                    attempts=int(f.get("attempts", 0)),
                                    frame_id=int(frame_id),
                                    ok=record.event == "tx_ok"))
        elif record.category == "chan" and record.event == "tx":
            f = _fields(record)
            parsed = _FRAME_RE.match(str(f.get("frame", "")))
            if parsed is None:
                continue
            frame_id = int(parsed.group(5))
            air_by_frame[frame_id] = (air_by_frame.get(frame_id, 0.0)
                                      + float(f.get("duration", 0.0)))

    # Build the hop objects first, then claim DCF records in *global*
    # enqueue order per queue — the MAC serves frames FIFO, so the i-th
    # enqueue at (node, next_hop) owns the i-th resolution there,
    # regardless of which packet it belongs to.
    span_hops: Dict[int, List[SpanHop]] = {
        uid: [SpanHop(node=node, next_hop=next_hop, queued_at=queued_at)
              for queued_at, node, next_hop in sorted(raw)]
        for uid, raw in hops_by_uid.items()
    }
    all_hops = sorted((h for hops in span_hops.values() for h in hops),
                      key=lambda h: h.queued_at)
    for hop in all_hops:
        fifo = dcf_fifo.get((hop.node, hop.next_hop, "data"))
        while fifo:
            entry = fifo[0]
            if entry.time < hop.queued_at:
                fifo.popleft()  # resolution with no surviving claim
                continue
            fifo.popleft()
            hop.resolved_at = entry.time
            hop.attempts = entry.attempts
            hop.outcome = "ok" if entry.ok else "fail"
            hop.air_time = air_by_frame.get(entry.frame_id, 0.0)
            break

    flights: List[PacketFlight] = []
    for uid in sorted(span_hops):
        hops = span_hops[uid]
        src = hops[0].node
        last = hops[-1]
        dst = last.next_hop
        delivered = (
            last.outcome == "ok"
            and uid not in forwarded_uids_by_node.get(dst, set()))
        first_queued = hops[0].queued_at
        discovery_at = _discovery_time(
            rreqs_by_node.get((src, dst)), first_queued)
        originated_at = (discovery_at if discovery_at is not None
                         else first_queued)
        flights.append(PacketFlight(
            uid=uid, src=src, dst=dst,
            originated_at=originated_at,
            status="delivered" if delivered else "dropped",
            hops=hops,
            discovery_at=discovery_at,
            delivered_at=last.resolved_at if delivered else None,
        ))
    return flights


#: Max seconds between a discovery's last RREQ and the buffered packet's
#: enqueue for the discovery to be considered the packet's gate.  A
#: buffered packet drains the moment the RREP lands, so the gap is one
#: RREP round trip — seconds at most; anything larger means the route
#: was served from cache and the RREQ belonged to some other packet.
_RREP_WINDOW_S = 5.0


def _discovery_time(rreqs: Optional[List[Tuple[float, int]]],
                    first_tx: float) -> Optional[float]:
    """Start of the discovery burst that gated this packet, if any.

    The burst's *last* RREQ must fall within :data:`_RREP_WINDOW_S` of
    the first enqueue (buffered packets drain on RREP arrival); the
    burst is then walked back via the ``attempt`` counter to its
    ``attempt == 1`` record, which approximates the packet's origination
    better than the final retry does.  RREQs older than the DSR
    send-buffer timeout can never gate a packet (the buffer would have
    expired it first).
    """
    if not rreqs:
        return None
    window = min(_RREP_WINDOW_S, SEND_BUFFER_TIMEOUT_S)
    last_index = None
    for index, (time, _) in enumerate(rreqs):
        if first_tx - window <= time <= first_tx:
            last_index = index
    if last_index is None:
        return None
    # Walk back to the burst start: attempt numbers decrease toward 1.
    start_time, start_attempt = rreqs[last_index]
    for index in range(last_index - 1, -1, -1):
        time, attempt = rreqs[index]
        if attempt >= start_attempt or first_tx - time > SEND_BUFFER_TIMEOUT_S:
            break
        start_time, start_attempt = time, attempt
    return start_time


def load_flights(paths: Iterable[PathLike]) -> List[PacketFlight]:
    """Read one or more JSONL trace files (``.gz`` ok) into flights."""
    from repro.obs.sinks import read_jsonl

    records: List[TraceRecord] = []
    for path in paths:
        records.extend(read_jsonl(path))
    records.sort(key=lambda r: r.time)
    return assemble_flights(records)


#: Sort keys accepted by :func:`format_flights` / the CLI ``--sort``.
SORT_KEYS = ("uid", "latency", "energy", "attempts", "hops")


def _sort_value(flight: PacketFlight, key: str) -> Tuple[float, int]:
    if key == "latency":
        latency = flight.total_latency
        return (-(latency if latency is not None else -1.0), flight.uid)
    if key == "energy":
        return (-flight.energy, flight.uid)
    if key == "attempts":
        return (-flight.total_attempts, flight.uid)
    if key == "hops":
        return (-len(flight.hops), flight.uid)
    return (0.0, flight.uid)


def format_flights(flights: List[PacketFlight], sort: str = "uid",
                   top: Optional[int] = None) -> str:
    """Sortable text table of flights, one row per packet."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    ordered = sorted(flights, key=lambda f: _sort_value(f, sort))
    if top is not None:
        ordered = ordered[:top]
    delivered = sum(1 for f in flights if f.status == "delivered")
    lines = [
        f"{len(flights)} flights ({delivered} delivered, "
        f"{len(flights) - delivered} dropped), sorted by {sort}",
        f"{'uid':>6} {'src':>4} {'dst':>4} {'status':<9} {'hops':>4} "
        f"{'att':>4} {'latency':>10} {'disc':>8} {'mac':>8} "
        f"{'air':>8} {'energy':>10}",
    ]
    for f in ordered:
        latency = (f"{f.total_latency * 1e3:9.1f}ms"
                   if f.total_latency is not None else "         -")
        lines.append(
            f"{f.uid:>6} {f.src:>4} {f.dst:>4} {f.status:<9} "
            f"{len(f.hops):>4} {f.total_attempts:>4} {latency} "
            f"{f.discovery_latency * 1e3:6.1f}ms {f.mac_latency * 1e3:6.1f}ms "
            f"{f.air_time * 1e3:6.2f}ms {f.energy * 1e3:7.2f}mJ"
        )
    return "\n".join(lines)


def flights_to_json(flights: List[PacketFlight], path: PathLike) -> Path:
    """Write flights (plus a summary header) as JSON; returns the path."""
    delivered = [f for f in flights if f.status == "delivered"]
    payload = {
        "flights": [f.to_dict() for f in flights],
        "summary": {
            "total": len(flights),
            "delivered": len(delivered),
            "dropped": len(flights) - len(delivered),
            "total_energy": sum(f.energy for f in flights),
            "total_attempts": sum(f.total_attempts for f in flights),
        },
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2))
    return out


__all__ = [
    "PacketFlight",
    "SORT_KEYS",
    "SpanHop",
    "assemble_flights",
    "flights_to_json",
    "format_flights",
    "load_flights",
]
