"""MAC interface and the plain-802.11 (no PSM) MAC.

The upper layer (DSR) talks to every MAC through four callbacks set with
:meth:`MacBase.set_upper`:

* ``on_receive(packet, prev_hop)`` — a packet addressed to this node (or a
  broadcast) was decoded;
* ``on_promiscuous(packet, transmitter)`` — a packet addressed to somebody
  else was decoded *and* the MAC's overhearing rules say the routing layer
  may use it;
* ``on_link_failure(packet, next_hop)`` — a unicast send exhausted its MAC
  retries (DSR treats this as a broken link);
* ``on_sent(packet, next_hop)`` — a unicast was delivered and acknowledged
  (or a broadcast was put on air);
* ``on_dropped(packet)`` — the MAC discarded the packet without a
  transmission verdict (interface-queue overflow).  NOT a link failure:
  congestion drops must not trigger DSR route maintenance.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set

from repro.mac.dcf import DcfTransmitter, TxOutcome
from repro.mac.frames import BROADCAST, Frame, FrameKind
from repro.mobility.manager import PositionService
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACE, TraceSink


class MacBase:
    """Common wiring for all MAC personalities."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: Channel,
        radio: Radio,
        positions: PositionService,
        rng: random.Random,
        trace: TraceSink = NULL_TRACE,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.radio = radio
        self.positions = positions
        self.rng = rng
        self.trace = trace
        self.dcf = DcfTransmitter(sim, node_id, channel, rng, trace=trace)
        channel.attach(node_id, on_tx_complete=self.dcf.on_tx_complete)
        self._on_receive: Callable[..., None] = _noop
        self._on_promiscuous: Callable[..., None] = _noop
        self._on_link_failure: Callable[..., None] = _noop
        self._on_sent: Callable[..., None] = _noop
        self._on_dropped: Callable[..., None] = _noop
        #: set while the node is crashed (fault injection); halted MACs
        #: neither transmit nor absorb ATIM announcements
        self._halted = False

    # ------------------------------------------------------------------

    def set_upper(
        self,
        on_receive: Callable[..., None],
        on_promiscuous: Optional[Callable[..., None]] = None,
        on_link_failure: Optional[Callable[..., None]] = None,
        on_sent: Optional[Callable[..., None]] = None,
        on_dropped: Optional[Callable[..., None]] = None,
    ) -> None:
        """Install the routing-layer callbacks."""
        self._on_receive = on_receive
        self._on_promiscuous = on_promiscuous or _noop
        self._on_link_failure = on_link_failure or _noop
        self._on_sent = on_sent or _noop
        self._on_dropped = on_dropped or _noop

    def start(self) -> None:
        """Begin operation (PSM MACs schedule their beacon clock here)."""

    def finalize(self) -> None:
        """Stop operation at the end of a run."""

    def halt(self) -> None:
        """Node crash (fault injection): drop all pending MAC work.

        Cancels the DCF pipeline — in-flight and queued attempts die with
        the node; a transmission already on air is truncated by the
        injector at the channel level.  Subclasses extend this to cancel
        their own timers (the PSM beacon chain).
        """
        self._halted = True
        self.dcf.cancel_all()

    def resume(self) -> None:
        """Recover from a crash, cold (fault injection).

        The base implementation only lifts the halt; subclasses restart
        their clocks (and the always-on MAC re-wakes its radio).
        """
        self._halted = False

    def send(self, packet: Any, dst: int) -> None:
        """Transmit ``packet`` to neighbor ``dst`` (or :data:`BROADCAST`)."""
        raise NotImplementedError

    @property
    def queue_depth(self) -> int:
        """Frames buffered at this MAC (observability gauge).

        For the always-on MAC that is the DCF pipeline; PSM MACs add their
        beacon-interval transmit queue on top.
        """
        return self.dcf.queue_depth


def _noop(*_args: Any, **_kwargs: Any) -> None:
    """Default do-nothing upper-layer callback."""


class AlwaysOnMac(MacBase):
    """Plain IEEE 802.11 DCF: the radio never sleeps, packets go immediately.

    This is the paper's ``802.11`` baseline — best delivery ratio and delay,
    maximum (and perfectly uniform) energy: every node idles at 1.15 W for
    the whole run.  Overhearing is unconditional and free.  Decoded frames
    reach the MAC's upcalls through its channel's :class:`_AlwaysOnFanout`,
    one call per frame.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        join_fanout(_AlwaysOnFanout, self)

    def start(self) -> None:
        """Wake the radio permanently (no PSM)."""
        self.radio.wake()

    def resume(self) -> None:
        """Recover from a crash: back to permanently awake."""
        super().resume()
        self.radio.wake()

    def send(self, packet: Any, dst: int) -> None:
        """Transmit immediately under DCF contention."""
        frame = Frame(self.node_id, dst, packet, FrameKind.DATA)
        self.dcf.submit(frame, self._on_dcf_done)

    def _on_dcf_done(self, frame: Frame, outcome: TxOutcome, delivered: Set[int]) -> None:
        if outcome is TxOutcome.DELIVERED:
            self._on_sent(frame.packet, frame.dst)
        elif outcome is TxOutcome.FAILED:
            self._on_link_failure(frame.packet, frame.dst)
        # DEFERRED cannot happen here (no deadlines without PSM).


def join_fanout(group_cls: Any, mac: MacBase) -> Any:
    """Add ``mac`` to its channel's fan-out group of type ``group_cls``.

    A MAC family serves a decoded frame with one call, not one per
    receiver: the first member constructed on a channel makes the group,
    which installs its ``deliver`` as the channel's fan-out, and later
    members find it there (the way :class:`repro.mac.epoch.EpochScheduler`
    groups beacon chains, so hand-built rigs need no wiring).  A channel
    carries one MAC family: fan-outs of different families do not chain.
    """
    channel = mac.channel
    group = getattr(channel.fanout, "__self__", None)
    if not isinstance(group, group_cls):
        group = group_cls(channel)
    group.macs[mac.node_id] = mac
    return group


class _AlwaysOnFanout:
    """The always-on MACs on one channel and their receive fan-out."""

    __slots__ = ("macs",)

    def __init__(self, channel: Channel) -> None:
        self.macs: Dict[int, AlwaysOnMac] = {}
        channel.set_fanout(self.deliver)

    def deliver(self, frame: Frame, sender: int,
                delivery_order: List[int]) -> None:
        """One decoded frame to all its receivers, in ascending order.

        The addressee and every receiver of a broadcast get the packet
        through ``_on_receive``; everyone else overhears it through
        ``_on_promiscuous`` (always-awake radios overhear everything, as
        classic DSR assumes).  Both upcalls are read from the MAC at call
        time: they are instance attributes an observer may wrap after
        the network is built.
        """
        dst = frame.dst
        packet = frame.packet
        macs = self.macs
        if dst == BROADCAST:
            for node in delivery_order:
                macs[node]._on_receive(packet, sender)
            return
        for node in delivery_order:
            if node == dst:
                macs[node]._on_receive(packet, sender)
            else:
                macs[node]._on_promiscuous(packet, sender)


__all__ = ["MacBase", "AlwaysOnMac"]
