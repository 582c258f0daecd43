"""Typed, serializable fault plans.

A :class:`FaultPlan` is an ordered, immutable collection of typed fault
events describing *what goes wrong* during a run: node crashes (with
optional recovery), premature energy depletion, per-link / per-node packet
loss (Bernoulli and Gilbert-Elliott burst), and ambient noise windows that
shrink the effective reception range.  Plans are pure data:

* **Composable** — ``plan_a + plan_b`` concatenates event lists.
* **Serializable** — :meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`
  round-trip through a versioned JSON document, so plans travel in run
  manifests and CLI files (``rcast-repro run --faults plan.json``).
* **Seed-derived** — parametric events (:class:`RandomCrashes`,
  :class:`RandomDepletions`) are expanded at injection time with RNG
  streams derived via :func:`repro.sim.rng.derive_seed` from the *run's*
  seed, so the same plan produces different (but deterministic) concrete
  fault schedules across replications, and the same (config, seed, plan)
  triple is always bit-identical — serial or parallel.

Every event is checked when it is built, from Python or JSON alike,
against one field table shared by all seven kinds and by the same
NaN-safe :func:`repro.errors.check_field` as ``SimulationConfig``; the
config then checks the plan's node ids against its node count.

The empty plan is a provable no-op: :func:`repro.network.build_network`
installs no injector for it, leaving every code path (and every RNG
stream) byte-identical to a run with no plan at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Any, Dict, Iterator, Optional, Tuple, Type, Union, get_args)

from repro.errors import ConfigurationError, FieldRange, check_field

#: Directed link scope: (sender, receiver) pairs.
LinkScope = Tuple[Tuple[int, int], ...]

#: Range of every fault-event field, keyed by field name (the kinds share
#: their names); the ``nodes`` and ``links`` rows apply to each node id in
#: them.  A ``None`` optional field is unset and not checked.
_FIELD_RANGES: Dict[str, FieldRange] = {
    **dict.fromkeys(("node", "nodes", "links"),
                    FieldRange(0, lo_closed=True, integer=True)),
    **dict.fromkeys(("fraction", "rate", "loss_good", "loss_bad"),
                    FieldRange(0.0, 1.0, lo_closed=True, hi_closed=True)),
    "range_factor": FieldRange(0.0, 1.0, hi_closed=True),
    **dict.fromkeys(("mean_good", "mean_bad", "recover_after"),
                    FieldRange(0.0)),
    **dict.fromkeys(("at", "start", "stop", "recover_at"),
                    FieldRange(0.0, lo_closed=True)),
}


@dataclass(frozen=True)
class _FaultEvent:
    """The check every event kind shares: the table, then the cross-field
    rules."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "kind" or (value is None and f.default is None):
                continue
            row = _FIELD_RANGES[f.name]
            if f.name not in ("nodes", "links"):
                check_field(f.name, value, row)
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"{f.name} must be a list, got {value!r}")
            if f.name == "links":
                if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                           for pair in value):
                    raise ConfigurationError(
                        "links must be a list of (sender, receiver) pairs, "
                        f"got {value!r}")
                value = tuple(tuple(pair) for pair in value)
            for node in (value if f.name == "nodes" else sum(value, ())):
                check_field(f"{f.name} entry", node, row)
            object.__setattr__(self, f.name, tuple(value))
        start = getattr(self, "start", None)
        stop = getattr(self, "stop", None)
        # A noise window must not be empty; a loss window or a crash
        # schedule may be.
        empty_ok = not isinstance(self, NoiseWindow)
        if stop is not None and not (stop >= start if empty_ok
                                     else stop > start):
            raise ConfigurationError(
                f"need start {'<=' if empty_ok else '<'} stop, got "
                f"[{start}, {stop})")
        at = getattr(self, "at", None)
        recover_at = getattr(self, "recover_at", None)
        if recover_at is not None and not recover_at > at:
            raise ConfigurationError(
                f"recover_at ({recover_at}) must be after the crash time "
                f"({at})")


@dataclass(frozen=True)
class NodeCrash(_FaultEvent):
    """Node ``node`` crashes at ``at`` (optionally recovering later).

    A crash kills the whole stack: the radio drops to the doze state, the
    MAC's pending events are cancelled, and the routing agent stops
    originating or absorbing packets.  With ``recover_at`` set the node
    comes back *cold* — MAC beacon clock restarted on its own offset grid,
    routing caches and discovery state flushed.
    """

    kind: str = field(default="node-crash", init=False)

    node: int
    at: float
    recover_at: Optional[float] = None


@dataclass(frozen=True)
class RandomCrashes(_FaultEvent):
    """Parametric crash schedule: each candidate node crashes i.i.d.

    Every node in ``nodes`` (default: all) crashes with probability
    ``fraction`` at a uniform time in ``[start, stop)``; crashed nodes
    recover ``recover_after`` seconds later when set.  Expansion happens at
    injection time with a seed-derived stream, so each replication of a
    sweep draws its own crash schedule deterministically.
    """

    kind: str = field(default="random-crashes", init=False)

    fraction: float
    start: float
    stop: float
    recover_after: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class EnergyDepletion(_FaultEvent):
    """Node ``node``'s battery dies prematurely at ``at`` (no recovery).

    Behaves like a permanent crash, and additionally closes the node's
    energy book: the meter's battery is marked exhausted so lifetime
    metrics see a genuine depletion rather than a mysterious silence.
    """

    kind: str = field(default="energy-depletion", init=False)

    node: int
    at: float


@dataclass(frozen=True)
class RandomDepletions(_FaultEvent):
    """Parametric depletion schedule (the battery analogue of RandomCrashes)."""

    kind: str = field(default="random-depletions", init=False)

    fraction: float
    start: float
    stop: float
    nodes: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class PacketLoss(_FaultEvent):
    """Bernoulli packet-loss impairment at frame delivery.

    Each otherwise-successful delivery inside ``[start, stop)`` is dropped
    independently with probability ``rate``.  Scope narrows by receiver
    (``nodes``) and/or directed link (``links`` of (sender, receiver)
    pairs); with neither set, every delivery in the window is impaired.
    """

    kind: str = field(default="packet-loss", init=False)

    rate: float
    start: float = 0.0
    stop: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None
    links: Optional[LinkScope] = None


@dataclass(frozen=True)
class BurstLoss(_FaultEvent):
    """Gilbert-Elliott two-state burst loss at frame delivery.

    Each scoped link evolves an independent good/bad Markov chain in
    continuous time (exponential sojourns with means ``mean_good`` /
    ``mean_bad`` seconds); deliveries are dropped with probability
    ``loss_good`` in the good state and ``loss_bad`` in the bad state.
    State trajectories are sampled lazily per link from a seed-derived
    stream, so they are deterministic per (seed, plan).
    """

    kind: str = field(default="burst-loss", init=False)

    mean_good: float
    mean_bad: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    start: float = 0.0
    stop: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None
    links: Optional[LinkScope] = None


@dataclass(frozen=True)
class NoiseWindow(_FaultEvent):
    """Ambient noise from ``start`` to ``stop`` shrinks reception range.

    While active, a receiver farther than ``range_factor x tx_range`` from
    the sender cannot decode — the noise floor eats the link margin at the
    range edge.  Overlapping windows compose by taking the smallest factor.
    """

    kind: str = field(default="noise", init=False)

    start: float
    stop: float
    range_factor: float


#: Every concrete fault-event type a plan may carry.
FaultEvent = Union[
    NodeCrash,
    RandomCrashes,
    EnergyDepletion,
    RandomDepletions,
    PacketLoss,
    BurstLoss,
    NoiseWindow,
]

_EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.kind: cls for cls in get_args(FaultEvent)}

#: JSON document version written by :meth:`FaultPlan.to_dict`.
PLAN_FORMAT_VERSION = 1


def _event_to_dict(event: FaultEvent) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": event.kind}
    for f in fields(event):
        value = getattr(event, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def _event_from_dict(data: Dict[str, Any]) -> FaultEvent:
    if not isinstance(data, dict):
        raise ConfigurationError(f"fault event must be an object, got {data!r}")
    kind = data.get("kind")
    cls = _EVENT_TYPES.get(str(kind))
    if cls is None:
        raise ConfigurationError(
            f"unknown fault event kind {kind!r}; known kinds: "
            f"{sorted(_EVENT_TYPES)}"
        )
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    known = {f.name for f in fields(cls)}
    unknown = set(kwargs) - known
    if unknown:
        raise ConfigurationError(
            f"unknown fields {sorted(unknown)} for fault event kind {kind!r}"
        )
    try:
        event: FaultEvent = cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid fault event {data!r}: {exc}"
        ) from None
    return event


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # Normalize lists (e.g. from dataclasses.replace callers) to the
        # canonical tuple so frozen equality and hashing behave.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, _FaultEvent):
                raise ConfigurationError(
                    f"fault plan entry {event!r} is not a fault event")

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing (a provable no-op)."""
        return not self.events

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def node_ids(self) -> Iterator[int]:
        """Every node id the plan names, in plan order."""
        for event in self.events:
            node = getattr(event, "node", None)
            if node is not None:
                yield node
            yield from getattr(event, "nodes", None) or ()
            for pair in getattr(event, "links", None) or ():
                yield from pair

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans by concatenating their event lists."""
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.events + other.events)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-safe document."""
        return {
            "version": PLAN_FORMAT_VERSION,
            "events": [_event_to_dict(e) for e in self.events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (deterministic key order)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Parse a plan document produced by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported fault-plan version {version!r} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        raw_events = data.get("events", [])
        if not isinstance(raw_events, list):
            raise ConfigurationError("fault plan 'events' must be a list")
        return cls(tuple(_event_from_dict(e) for e in raw_events))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault-plan JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan {path}: {exc}"
            ) from None
        return cls.from_json(text)

#: Shared empty plan (the canonical no-op).
EMPTY_PLAN = FaultPlan()


__all__ = [
    "BurstLoss",
    "EMPTY_PLAN",
    "EnergyDepletion",
    "FaultEvent",
    "FaultPlan",
    "LinkScope",
    "NodeCrash",
    "NoiseWindow",
    "PLAN_FORMAT_VERSION",
    "PacketLoss",
    "RandomCrashes",
    "RandomDepletions",
]
