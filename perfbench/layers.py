"""Per-layer self time, measured from outside the simulator.

:class:`LayerTracer` attaches to a built :class:`repro.network.Network`
without changing any code under ``src/``.  It wraps the seams where one
layer calls into another and keeps a stack of layer tags; every clock
reading charges the time since the previous reading to the tag on top of
the stack, so each layer's total is its *self* time (its spans minus its
child spans) and the totals add up to the traced ``Network.run()``.

Seams wrapped (all on the instances of one network, none on a class, so an
untraced run in the same process executes the unmodified code):

* the engine: ``Simulator.run`` (tag ``sim``: the dispatch loop) and
  ``Simulator.set_fire_interceptor`` — each event is tagged with the layer
  of the module that defines its callback and counted by its *root*, the
  callback's qualified name (``Channel._finish``, ``DcfTransmitter._attempt``,
  ``_EpochGroup._fire_announce``, ``CbrSource._emit`` ...);
* PHY: ``Channel.transmit``, the ``_receivers`` / ``_tx_complete`` entries
  (PHY -> MAC) and the position-refresh listener;
* MAC: ``send`` (routing -> MAC) and the ``set_upper`` callbacks
  (MAC -> routing);
* Rcast: ``RcastManager.advertise``, ``should_overhear`` and
  ``should_receive_broadcast``;
* mobility: ``PositionService._refresh_now``;
* traffic -> routing: ``DsrProtocol.send_data``;
* the metrics collector's event methods and ``finalize``.

Callables the program binds once at construction (the channel's receiver
tables, the MAC's upper-layer callbacks, DCF's attempt callback) are
reached through the tables and attributes that hold them, or through the
fire interceptor, so wrapping after ``build_network`` sees every call.

Work a layer does without crossing a wrapped seam is charged to the caller:
carrier-sense queries to ``mac.dcf``, radio wake/sleep to the MAC, route
cache lookups to ``routing.dsr``, and ``RcastManager.note_heard`` (a
one-line dict store the PSM MAC calls for every decoded frame) to
``mac.psm``.  Each span carries part of the cost of its own bookkeeping, a
few hundred nanoseconds; wrapped around ``note_heard`` that cost was ten
times the body and made ``core.rcast`` look like 7 % of
``Channel._finish``, so that seam stays unwrapped.  The always-on 802.11
MAC (``repro.mac.base``) is DCF plus a two-line receive dispatch, so it is
tagged ``mac.dcf``; ``mac.psm`` covers ``repro.mac.psm``, ``mac.epoch``
and the rest of the PSM package.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: module prefix -> layer tag; first match wins.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.mobility", "mobility"),
    ("repro.phy", "phy"),
    ("repro.mac.dcf", "mac.dcf"),
    ("repro.mac.base", "mac.dcf"),
    ("repro.mac", "mac.psm"),
    ("repro.core", "core.rcast"),
    ("repro.routing", "routing.dsr"),
    ("repro.traffic", "traffic"),
    ("repro.metrics", "metrics"),
)

#: Every tag a span can carry; ``untracked`` is time inside
#: ``Network.run()`` outside all spans (node start-up and finalize).
LAYERS = ("untracked",) + tuple(dict.fromkeys(t for _, t in LAYER_OF_MODULE))

#: Root label of time spent outside any event (engine loop, start-up).
NO_EVENT = "-"

_COLLECTOR_METHODS = ("data_originated", "data_delivered", "data_dropped",
                      "transmission", "route_used", "link_break",
                      "overheard", "finalize")
_UPPER_CALLBACKS = (("_on_receive", "dsr.receive"),
                    ("_on_promiscuous", "dsr.tap"),
                    ("_on_link_failure", "dsr.link_failure"),
                    ("_on_dropped", "dsr.ifq_drop"))
_RCAST_METHODS = ("advertise", "should_overhear", "should_receive_broadcast")


def layer_of(module: str) -> str:
    """Layer tag of the code in ``module``."""
    for prefix, tag in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return tag
    return "untracked"


class LayerTracer:
    """Self time per (root event, layer) and call counts per seam.

    One tracer can be attached to several networks in turn; totals
    accumulate across them.
    """

    def __init__(self) -> None:
        #: (root, layer) -> self seconds
        self.self_s: Dict[Tuple[str, str], float] = {}
        #: events fired, by root
        self.events: Dict[str, int] = {}
        #: wrapped-seam calls, by seam name
        self.calls: Dict[str, int] = {}
        self._stack: List[str] = ["untracked"]
        #: [time of the last charge, current root]
        self._state: List[Any] = [0.0, NO_EVENT]
        #: callback code -> (layer, root)
        self._kinds: Dict[Any, Tuple[str, str]] = {}

    # -- the two primitives every span is made of ------------------------

    def _charge(self, now: float) -> None:
        state = self._state
        key = (state[1], self._stack[-1])
        acc = self.self_s
        acc[key] = acc.get(key, 0.0) + (now - state[0])
        state[0] = now

    def wrap(self, fn: Callable[..., Any], layer: str,
             seam: str) -> Callable[..., Any]:
        """``fn`` as a span of ``layer``, counted under ``seam``."""
        stack = self._stack
        state = self._state
        acc = self.self_s
        calls = self.calls
        calls.setdefault(seam, 0)
        clock = perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            key = (state[1], stack[-1])
            acc[key] = acc.get(key, 0.0) + (now - state[0])
            state[0] = now
            stack.append(layer)
            calls[seam] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                key = (state[1], stack.pop())
                acc[key] = acc.get(key, 0.0) + (now - state[0])
                state[0] = now

        return span

    def _kind(self, callback: Callable[..., Any]) -> Tuple[str, str]:
        func = getattr(callback, "__func__", callback)
        if isinstance(func, functools.partial):
            func = getattr(func.func, "__func__", func.func)
        key = getattr(func, "__code__", func)
        kind = self._kinds.get(key)
        if kind is None:
            module = getattr(func, "__module__", "") or ""
            name = getattr(func, "__qualname__", type(func).__name__)
            kind = self._kinds[key] = (layer_of(module), name)
        return kind

    def _fire(self, event: Any) -> None:
        """Fire interceptor: one span per event, tagged by its callback."""
        layer, root = self._kind(event.callback)
        events = self.events
        events[root] = events.get(root, 0) + 1
        state = self._state
        self._charge(perf_counter())
        state[1] = root
        self._stack.append(layer)
        try:
            event.fire()
        finally:
            now = perf_counter()
            key = (root, self._stack.pop())
            acc = self.self_s
            acc[key] = acc.get(key, 0.0) + (now - state[0])
            state[0] = now
            state[1] = NO_EVENT

    # -- attaching ---------------------------------------------------------

    def attach(self, network: Any) -> None:
        """Wrap every seam of ``network``; call once, before ``run()``."""
        wrap = self.wrap
        sim = network.sim
        sim.set_fire_interceptor(self._fire)
        sim.run = wrap(sim.run, "sim", "sim.run")

        channel = network.channel
        channel.transmit = wrap(channel.transmit, "phy", "phy.transmit")
        for table, seam in ((channel._receivers, "mac.receive"),
                            (channel._tx_complete, "mac.tx_complete")):
            for node, callback in table.items():
                table[node] = wrap(callback, self._kind(callback)[0], seam)

        positions = network.positions
        positions._refresh_now = wrap(positions._refresh_now, "mobility",
                                      "mobility.refresh")
        listeners = positions._refresh_listeners
        listeners[:] = [wrap(fn, self._kind(fn)[0], "phy.refresh_listener")
                        for fn in listeners]

        metrics = network.metrics
        for name in _COLLECTOR_METHODS:
            setattr(metrics, name,
                    wrap(getattr(metrics, name), "metrics", "metrics." + name))

        for node in network.nodes:
            mac = node.mac
            mac.send = wrap(mac.send, self._kind(mac.send)[0], "mac.send")
            for attr, seam in _UPPER_CALLBACKS:
                setattr(mac, attr, wrap(getattr(mac, attr), "routing.dsr",
                                        seam))
            agent = node.dsr
            agent.send_data = wrap(agent.send_data, "routing.dsr",
                                   "dsr.send_data")
            if node.rcast is not None:
                for name in _RCAST_METHODS:
                    setattr(node.rcast, name,
                            wrap(getattr(node.rcast, name), "core.rcast",
                                 "rcast." + name))

    def run(self, network: Any) -> Any:
        """``network.run()`` with the clock started and drained around it."""
        self._state[0] = perf_counter()
        try:
            return network.run()
        finally:
            self._charge(perf_counter())

    # -- reading -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, summed over roots (every tag listed)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for (_, layer), seconds in self.self_s.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def root_split(self, root: str) -> Dict[str, float]:
        """Self seconds per layer inside events of ``root``."""
        return {layer: seconds for (r, layer), seconds in self.self_s.items()
                if r == root}
