"""Deterministic fault injection for a built network.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete simulator events and delivery-time decisions:

* **Crashes / depletions** are scheduled as kernel-priority engine events.
  A crash kills the node's whole stack: any in-flight transmission is
  corrupted at every receiver, the MAC is halted (pending DCF attempts and
  the PSM beacon chain cancelled), the routing agent goes down (buffered
  packets dropped, discovery timers cancelled), and the radio drops to the
  doze state.  Recovery brings the node back *cold*: routing caches and
  discovery history flushed, the MAC beacon clock restarted on the node's
  own offset grid at the next boundary.
* **Packet loss** (Bernoulli and Gilbert-Elliott burst) and **noise
  windows** are consulted by the channel at frame delivery through
  :meth:`drop_delivery` — one extra branch per receiver, only wired when
  the plan is non-empty.

Determinism (lint rules R001/R002 apply here as everywhere): every random
decision draws from a named stream derived from the *run's* root seed via
:func:`repro.sim.rng.derived_stream` (``faults:<index>:...``), so the same
(config, seed, plan) triple yields bit-identical fault schedules and drop
sequences — serially, under the process pool, and across platforms.
Parametric events (:class:`~repro.faults.plan.RandomCrashes`) therefore
expand differently per replication for free: replications already run with
derived seeds.

With a ``None`` or empty plan :func:`repro.network.build_network` creates
no injector at all — no extra events, no RNG streams, no per-delivery
branch beyond a predicate that is never true — which is what makes the
empty plan a provable (golden-trace-enforced) no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import (
    BurstLoss,
    EnergyDepletion,
    FaultPlan,
    NodeCrash,
    NoiseWindow,
    PacketLoss,
    RandomCrashes,
    RandomDepletions,
)
from repro.sim.events import PRIORITY_KERNEL
from repro.sim.rng import derived_stream
from repro.sim.trace import NULL_TRACE, TraceSink

if TYPE_CHECKING:
    import random

    from repro.mobility.manager import PositionService
    from repro.node import Node
    from repro.phy.channel import Channel
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

#: Trace category used for every fault-subsystem record.
FAULT_CATEGORY = "fault"

#: Counter keys, in the (stable) order they appear in manifests.
_COUNTER_KEYS = (
    "crashes", "recoveries", "depletions",
    "loss_drops", "burst_drops", "noise_drops",
)


class _GilbertElliott:
    """Per-link continuous-time good/bad loss process, advanced lazily.

    Sojourn times in each state are exponential with the rule's means; the
    chain is only sampled when the link is queried, and query times are
    simulator times (monotone non-decreasing), so the trajectory is a pure
    function of the link's derived stream.
    """

    __slots__ = ("rng", "mean_good", "mean_bad", "bad", "until")

    def __init__(self, rng: "random.Random", rule: BurstLoss) -> None:
        self.rng = rng
        self.mean_good = rule.mean_good
        self.mean_bad = rule.mean_bad
        self.bad = False
        self.until = rule.start + rng.expovariate(1.0 / rule.mean_good)

    def drop(self, now: float, loss_good: float, loss_bad: float) -> bool:
        """Advance the chain to ``now`` and draw one loss decision."""
        while self.until <= now:
            self.bad = not self.bad
            mean = self.mean_bad if self.bad else self.mean_good
            self.until += self.rng.expovariate(1.0 / mean)
        p = loss_bad if self.bad else loss_good
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.rng.random() < p


class _LossRule:
    """One compiled loss impairment (Bernoulli or burst)."""

    __slots__ = ("event", "index", "seed", "counter", "rng", "links")

    def __init__(self, event: object, index: int, seed: int) -> None:
        self.event = event
        self.index = index
        self.seed = seed
        if isinstance(event, BurstLoss):
            self.counter = "burst_drops"
            self.rng: Optional["random.Random"] = None
            #: (sender, receiver) -> lazily created per-link chain
            self.links: Dict[Tuple[int, int], _GilbertElliott] = {}
        else:
            self.counter = "loss_drops"
            self.rng = derived_stream(seed, f"faults:{index}:loss")
            self.links = {}

    def drop(self, sender: int, receiver: int, now: float) -> bool:
        event = self.event
        assert isinstance(event, (PacketLoss, BurstLoss))
        if now < event.start:
            return False
        if event.stop is not None and now >= event.stop:
            return False
        if event.nodes is not None and receiver not in event.nodes:
            return False
        if event.links is not None and (sender, receiver) not in event.links:
            return False
        if isinstance(event, BurstLoss):
            key = (sender, receiver)
            chain = self.links.get(key)
            if chain is None:
                chain = self.links[key] = _GilbertElliott(
                    derived_stream(
                        self.seed,
                        f"faults:{self.index}:burst:{sender}->{receiver}",
                    ),
                    event,
                )
            return chain.drop(now, event.loss_good, event.loss_bad)
        assert self.rng is not None
        return self.rng.random() < event.rate


class FaultInjector:
    """Executes a non-empty :class:`FaultPlan` against a built network."""

    def __init__(
        self,
        sim: "Simulator",
        plan: FaultPlan,
        seed: int,
        nodes: List["Node"],
        radios: Dict[int, "Radio"],
        channel: "Channel",
        positions: "PositionService",
        tx_range: float,
        sim_time: float,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        if plan.is_empty:
            raise ConfigurationError(
                "FaultInjector requires a non-empty plan (the empty plan "
                "must stay a no-op: build no injector for it)"
            )
        self.sim = sim
        self.plan = plan
        self.seed = seed
        self.nodes = nodes
        self.radios = radios
        self.channel = channel
        self.positions = positions
        self.tx_range = tx_range
        self.sim_time = sim_time
        self.trace = trace
        self.counts: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        #: nodes currently crashed/depleted
        self._down: Set[int] = set()
        self._noise: List[NoiseWindow] = []
        self._loss_rules: List[_LossRule] = []
        self._armed = False
        #: delivery-veto time envelope, precomputed by :meth:`arm`: the
        #: union span of all noise windows and loss rules.  Outside
        #: ``[veto_from, veto_until)`` no rule can match — and rules only
        #: draw RNG inside their own window — so the channel skips the
        #: per-receiver :meth:`drop_delivery` calls entirely without
        #: changing any draw sequence.  Crash-only plans keep the empty
        #: envelope (``inf``, ``-inf``) and never pay the veto loop.
        self.veto_from = float("inf")
        self.veto_until = float("-inf")

    # ------------------------------------------------------------------
    # Arming: plan -> scheduled events + compiled delivery rules
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Expand the plan and schedule its timed events (once, at build).

        Parametric events are expanded with streams derived from the run
        seed and the event's plan position, so two events of the same kind
        in one plan draw independently, and the same plan under different
        replication seeds draws fresh (but reproducible) schedules.
        """
        if self._armed:
            raise ConfigurationError("FaultInjector.arm() called twice")
        self._armed = True
        num_nodes = len(self.nodes)
        for index, event in enumerate(self.plan.events):
            if isinstance(event, NodeCrash):
                self._schedule_crash(event.node, event.at, event.recover_at,
                                     deplete=False)
            elif isinstance(event, EnergyDepletion):
                self._schedule_crash(event.node, event.at, None, deplete=True)
            elif isinstance(event, (RandomCrashes, RandomDepletions)):
                self._expand_random(event, index, num_nodes)
            elif isinstance(event, NoiseWindow):
                self._noise.append(event)
                self._extend_veto_envelope(event.start, event.stop)
            else:  # PacketLoss or BurstLoss
                self._loss_rules.append(_LossRule(event, index, self.seed))
                self._extend_veto_envelope(event.start, event.stop)

    def _extend_veto_envelope(self, start: float,
                              stop: Optional[float]) -> None:
        """Widen the delivery-veto envelope to cover ``[start, stop)``."""
        if start < self.veto_from:
            self.veto_from = start
        effective_stop = stop if stop is not None else float("inf")
        if effective_stop > self.veto_until:
            self.veto_until = effective_stop

    def _expand_random(self, event: object, index: int,
                       num_nodes: int) -> None:
        assert isinstance(event, (RandomCrashes, RandomDepletions))
        rng = derived_stream(self.seed, f"faults:{index}:{event.kind}")
        candidates = (event.nodes if event.nodes is not None
                      else tuple(range(num_nodes)))
        deplete = isinstance(event, RandomDepletions)
        recover_after = (None if deplete else event.recover_after)
        # Ascending candidate order: the draw sequence (and therefore the
        # expansion) is a pure function of (seed, plan position).
        for node in sorted(candidates):
            if rng.random() >= event.fraction:
                continue
            at = rng.uniform(event.start, event.stop)
            recover_at = (at + recover_after
                          if recover_after is not None else None)
            self._schedule_crash(node, at, recover_at, deplete=deplete)

    def _schedule_crash(self, node: int, at: float,
                        recover_at: Optional[float], deplete: bool) -> None:
        # Kernel priority: a crash at time t lands before normal protocol
        # events at t, so "crashed at t" means the node did nothing at t.
        self.sim.schedule_at(at, self._crash, node, deplete,
                             priority=PRIORITY_KERNEL)
        if recover_at is not None:
            self.sim.schedule_at(recover_at, self._recover, node,
                                 priority=PRIORITY_KERNEL)

    # ------------------------------------------------------------------
    # Crash / recovery / depletion execution
    # ------------------------------------------------------------------

    def _crash(self, node_id: int, deplete: bool) -> None:
        if node_id in self._down:
            return  # overlapping plans: already down
        self._down.add(node_id)
        now = self.sim.now
        self.counts["depletions" if deplete else "crashes"] += 1
        if self.trace.enabled:
            self.trace.emit(now, FAULT_CATEGORY, node_id,
                            "deplete" if deplete else "crash")
        node = self.nodes[node_id]
        # Truncate an in-flight transmission: the carrier dies mid-frame,
        # so no receiver may decode it.
        tx = self.channel._active.get(node_id)
        if tx is not None:
            tx.corrupt_everywhere()
        node.mac.halt()
        node.dsr.halt()
        radio = self.radios[node_id]
        radio.sleep()
        if deplete:
            meter = radio.meter
            # Close the battery book: whatever the meter says was consumed
            # *is* the whole battery, so ``remaining_fraction()`` is 0 and
            # lifetime metrics see a genuine exhaustion (a dead battery
            # still leaks at sleep power, hence max with a tiny floor).
            meter.battery_joules = max(meter.energy_joules(now), 1e-12)

    def _recover(self, node_id: int) -> None:
        if node_id not in self._down:
            return  # cleared or never crashed (overlapping plans)
        self._down.discard(node_id)
        self.counts["recoveries"] += 1
        if self.trace.enabled:
            self.trace.emit(self.sim.now, FAULT_CATEGORY, node_id, "recover")
        node = self.nodes[node_id]
        # Cold restart: routing first (so the MAC's first interval serves a
        # clean agent), then the MAC beacon clock.
        node.dsr.reset_cold()
        node.mac.resume()

    # ------------------------------------------------------------------
    # Delivery-time impairments (called by Channel._finish)
    # ------------------------------------------------------------------

    def drop_delivery(self, sender: int, receiver: int, now: float) -> bool:
        """Should the frame from ``sender`` be lost at ``receiver`` now?

        Checked once per otherwise-successful receiver.  Noise windows are
        evaluated first (pure geometry, no RNG), then loss rules in plan
        order; the first matching rule that draws a drop wins.
        """
        if self._noise:
            factor = 1.0
            for window in self._noise:
                if window.start <= now < window.stop:
                    if window.range_factor < factor:
                        factor = window.range_factor
            if factor < 1.0:
                if (self.positions.distance(sender, receiver)
                        > factor * self.tx_range):
                    self.counts["noise_drops"] += 1
                    if self.trace.enabled:
                        self.trace.emit(now, FAULT_CATEGORY, receiver, "drop",
                                        sender=sender, cause="noise")
                    return True
        for rule in self._loss_rules:
            if rule.drop(sender, receiver, now):
                self.counts[rule.counter] += 1
                if self.trace.enabled:
                    self.trace.emit(
                        now, FAULT_CATEGORY, receiver, "drop",
                        sender=sender,
                        cause="burst" if rule.counter == "burst_drops"
                        else "loss",
                    )
                return True
        return False

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------

    def fault_counts(self) -> Dict[str, int]:
        """Non-zero fault counters, in stable key order (manifest payload)."""
        return {k: v for k, v in self.counts.items() if v}


__all__ = ["FaultInjector", "FAULT_CATEGORY"]
