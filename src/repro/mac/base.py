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
from typing import Any, Callable, Optional, Set

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
        # Statistics
        self.unicasts_sent = 0
        self.unicasts_failed = 0
        self.broadcasts_sent = 0

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
    the whole run.  Overhearing is unconditional and free.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Served by the channel's default fan-out, one call per receiver.
        self.channel.attach(self.node_id, self._on_channel_receive)

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
        if dst == BROADCAST:
            self.broadcasts_sent += 1
        else:
            self.unicasts_sent += 1
        self.dcf.submit(frame, self._on_dcf_done)

    def _on_dcf_done(self, frame: Frame, outcome: TxOutcome, delivered: Set[int]) -> None:
        if outcome is TxOutcome.DELIVERED:
            self._on_sent(frame.packet, frame.dst)
        elif outcome is TxOutcome.FAILED:
            self.unicasts_failed += 1
            self._on_link_failure(frame.packet, frame.dst)
        # DEFERRED cannot happen here (no deadlines without PSM).

    def _on_channel_receive(self, frame: Frame, sender: int) -> None:
        dst = frame.dst
        if dst == self.node_id or dst == BROADCAST:
            self._on_receive(frame.packet, sender)
        else:
            # Always-awake radios overhear everything, as classic DSR assumes.
            self._on_promiscuous(frame.packet, sender)


__all__ = ["MacBase", "AlwaysOnMac"]
