"""Golden-trace regression corpus: byte-for-byte scheme behaviour lock.

One fixed-seed mid-size run per scheme; the full event trace (gzipped
JSONL, ``mtime=0`` for reproducible bytes) and the metrics dict (pretty
JSON) are committed under ``tests/golden/``.  Any change to scheduling
order, RNG stream consumption, trace emission, or metrics accounting
shows up here as a byte diff — including accidental perturbations from
the fault-injection layer, which must be a provable no-op when no plan
is configured.

After an *intentional* behaviour change, refresh with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and review the regenerated files before committing.
"""

from __future__ import annotations

import difflib
import gzip
import json
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from repro.metrics.collector import RunMetrics
from repro.network import SimulationConfig, run_simulation
from repro.sim.trace import TraceLog

GOLDEN_DIR = Path(__file__).parent

SCHEMES = ("ieee80211", "psm", "odpm", "rcast")

#: Corpus entries beyond the plain schemes, as config overrides:
#:
#: * ``rcast-degree`` locks the measured-degree estimator's full event
#:   stream (announcement folding, epoch traces, adaptive metrics block);
#: * ``span`` locks the tap-in-AM filter under the SPAN backbone;
#: * ``rcast-edge`` locks the branches the paper's defaults never take:
#:   clock jitter whose 0-100 ms offsets straddle the 50 ms ATIM window
#:   (deferred and missed announcements), the composed P_R of all three
#:   decision factors, randomized RREQ reception and opportunistic taps;
#: * ``aodv`` locks the AODV agent (footnote 1's contrast case) under
#:   Rcast: hop-by-hop forwarding, expanding-ring discovery, route
#:   timeouts and RERR broadcasts;
#: * ``aodv-mobile`` locks AODV route maintenance: faster nodes and more
#:   flows break links, so the link-failure, RERR and route-table
#:   invalidation paths run.
VARIANTS: Dict[str, Dict[str, Any]] = {
    "rcast-degree": dict(scheme="rcast", overhearing_policy="degree"),
    "span": dict(scheme="span"),
    "rcast-edge": dict(scheme="rcast", clock_jitter=0.1,
                       rcast_factors=("sender", "mobility", "battery"),
                       rreq_randomized=True, opportunistic_tap=True),
    "aodv": dict(scheme="rcast", routing="aodv"),
    "aodv-mobile": dict(scheme="ieee80211", routing="aodv", max_speed=10.0,
                        num_connections=8, packet_rate=2.0, sim_time=30.0),
}

#: Corpus entries: the four schemes under fixed 1/n overhearing, then the
#: variants.
CORPUS = SCHEMES + tuple(VARIANTS)


def golden_config(entry: str) -> SimulationConfig:
    """The corpus scenario: mobile mid-size network, moderate traffic.

    Big enough to exercise every protocol path (ATIM negotiation, route
    breaks under waypoint mobility, Rcast randomized reception), small
    enough that all corpus entries replay in a few seconds.  A variant
    entry is the same scenario with its overrides applied.
    """
    scenario: Dict[str, Any] = dict(
        seed=7,
        sim_time=15.0,
        num_nodes=24,
        arena_w=800.0,
        arena_h=300.0,
        num_connections=4,
        mobility="waypoint",
        max_speed=2.0,
        pause_time=0.0,
        packet_rate=0.4,
    )
    scenario.update(VARIANTS.get(entry, dict(scheme=entry)))
    return SimulationConfig(**scenario)


def regenerate(entry: str) -> Tuple[bytes, str, RunMetrics]:
    """Run the corpus scenario; return (trace bytes, metrics text, metrics)."""
    trace = TraceLog()
    metrics = run_simulation(golden_config(entry), trace=trace)
    trace_bytes = "".join(r.to_json() + "\n" for r in trace).encode()
    metrics_text = json.dumps(metrics.to_dict(), indent=2) + "\n"
    return trace_bytes, metrics_text, metrics


def _context_diff(expected: str, actual: str, name: str) -> str:
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        fromfile=f"golden/{name}", tofile=f"regenerated/{name}", n=1,
    )
    lines = list(diff)[:40]
    return "".join(lines)


@pytest.mark.parametrize("scheme", CORPUS)
def test_golden(scheme: str, update_golden: bool) -> None:
    trace_path = GOLDEN_DIR / f"{scheme}.trace.jsonl.gz"
    metrics_path = GOLDEN_DIR / f"{scheme}.metrics.json"
    trace_bytes, metrics_text, metrics = regenerate(scheme)

    if update_golden:
        # mtime=0 keeps the gzip container deterministic across refreshes.
        trace_path.write_bytes(gzip.compress(trace_bytes, mtime=0))
        metrics_path.write_text(metrics_text)
        return

    assert trace_path.exists() and metrics_path.exists(), (
        f"golden corpus missing for {scheme}; run "
        f"`pytest tests/golden --update-golden` and commit the files"
    )

    golden_metrics = metrics_path.read_text()
    assert metrics_text == golden_metrics, (
        f"{scheme}: metrics drifted from golden corpus\n"
        + _context_diff(golden_metrics, metrics_text,
                        f"{scheme}.metrics.json")
    )

    golden_trace = gzip.decompress(trace_path.read_bytes())
    if trace_bytes != golden_trace:
        diff = _context_diff(
            golden_trace.decode(), trace_bytes.decode(),
            f"{scheme}.trace.jsonl",
        )
        pytest.fail(
            f"{scheme}: trace drifted from golden corpus "
            f"({len(golden_trace)} -> {len(trace_bytes)} bytes)\n{diff}"
        )

    # The corpus was generated fault-free: the injection layer being wired
    # in must not have left any counters behind.
    assert metrics.fault_counts == {}


@pytest.mark.parametrize("scheme", CORPUS)
def test_golden_gzip_is_deterministic(scheme: str) -> None:
    """Committed container bytes must match a fresh mtime=0 compression."""
    trace_path = GOLDEN_DIR / f"{scheme}.trace.jsonl.gz"
    raw = gzip.decompress(trace_path.read_bytes())
    assert gzip.compress(raw, mtime=0) == trace_path.read_bytes()


def _run_counting_branches(
        entry: str) -> Tuple[Any, TraceLog, Dict[str, int]]:
    """Run a variant entry, sorting each routing-layer tap by the filter
    branch that let it through and counting deferred ATIM deliveries."""
    from repro.mac.power import PowerMode
    from repro.network import build_network

    trace = TraceLog()
    network = build_network(golden_config(entry), trace=trace)
    counts = {"elected": 0, "am": 0, "opportunistic": 0, "deferred": 0}
    for node in network.nodes:
        mac = node.mac

        def tap(packet: Any, sender: int, mac: Any = mac,
                upper: Any = mac._on_promiscuous) -> None:
            if sender in mac._overhear_senders:
                counts["elected"] += 1
            elif mac.power.mode(mac.sim.now) is PowerMode.AM:
                counts["am"] += 1
            else:
                counts["opportunistic"] += 1
            upper(packet, sender)

        mac._on_promiscuous = tap
    schedule = network.sim.schedule

    def counting_schedule(delay: float, callback: Any, *args: Any,
                          **kwargs: Any) -> Any:
        # The only repro.mac.psm method scheduled straight on the engine
        # is the cross-window (deferred) announcement delivery.
        owner = getattr(callback, "__self__", None)
        if type(owner).__module__ == "repro.mac.psm":
            counts["deferred"] += 1
        return schedule(delay, callback, *args, **kwargs)

    network.sim.schedule = counting_schedule  # type: ignore[method-assign]
    network.run()
    return network, trace, counts


def test_span_entry_taps_in_am() -> None:
    """``span`` advertises NONE, so every tap is the tap-in-AM branch."""
    _, _, counts = _run_counting_branches("span")
    assert counts["am"] > 0
    assert counts["elected"] == counts["opportunistic"] == 0


def test_edge_entry_takes_every_branch() -> None:
    network, trace, counts = _run_counting_branches("rcast-edge")
    macs = [node.mac for node in network.nodes]
    # Clock jitter: announcements both deferred into the next window and
    # lost between disjoint windows.
    assert counts["deferred"] > 0
    assert sum(mac.missed_announcements for mac in macs) > 0
    # Opportunistic taps of senders nobody elected to overhear.
    assert counts["opportunistic"] > 0 and counts["elected"] > 0
    # Randomized RREQ reception.
    assert any(r.event == "broadcast_rx" for r in trace)
    # The composed P_R: some randomized decision's p is not a plain 1/n.
    ps = [r.get("p") for r in trace
          if r.event == "overhear" and r.get("p") is not None]
    assert ps and any(abs(1.0 / p - round(1.0 / p)) > 1e-9
                      for p in ps if p > 0)
