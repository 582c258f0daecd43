"""Property-based tests (hypothesis) on core invariants."""

import math
import random
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mobility.base import Arena
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.energy import EnergyMeter, RadioState
from repro.routing.dsr.cache import PRIMARY_SOURCES, CachedPath, RouteCache
from repro.routing.packets import DataPacket, next_uid
from repro.sim.engine import Simulator
from repro.metrics.stats import sample_variance


# --- Event queue ordering ---------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    handles = []
    for delay, cancel in entries:
        handle = sim.schedule(delay, fired.append, cancel)
        handles.append((handle, cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    assert all(flag is False for flag in fired)
    expected = sum(1 for _, c in entries if not c)
    assert len(fired) == expected


# --- Waypoint mobility ------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**31),
       times=st.lists(st.floats(min_value=0, max_value=5000,
                                allow_nan=False),
                      min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_waypoint_positions_always_inside_arena(seed, times):
    arena = Arena(1000.0, 400.0)
    model = RandomWaypoint(10, arena, random.Random(seed), max_speed=15.0,
                           pause_time=5.0)
    for t in sorted(times):
        pos = model.positions_at(t)
        assert (pos[:, 0] >= -1e-6).all() and (pos[:, 0] <= 1000.0 + 1e-6).all()
        assert (pos[:, 1] >= -1e-6).all() and (pos[:, 1] <= 400.0 + 1e-6).all()


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_waypoint_displacement_bounded_by_max_speed(seed):
    arena = Arena(500.0, 500.0)
    model = RandomWaypoint(5, arena, random.Random(seed), max_speed=7.0)
    prev = model.positions_at(0.0)
    for step in range(1, 30):
        cur = model.positions_at(step * 2.0)
        dist = np.hypot(*(cur - prev).T)
        assert (dist <= 7.0 * 2.0 + 1e-6).all()
        prev = cur


# --- Energy meter ------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(list(RadioState)),
                          st.floats(min_value=0.001, max_value=100.0,
                                    allow_nan=False)),
                min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_energy_time_conservation(transitions):
    """Sum of per-state residencies always equals elapsed time."""
    meter = EnergyMeter()
    t = 0.0
    for state, dt in transitions:
        t += dt
        meter.transition(state, t)
    t += 1.0
    meter.finalize(t)
    total = sum(meter.time_in(s) for s in RadioState)
    assert total == pytest.approx(t, rel=1e-9)
    assert meter.awake_time + meter.sleep_time == pytest.approx(t, rel=1e-9)


@given(st.lists(st.tuples(st.sampled_from(list(RadioState)),
                          st.floats(min_value=0.001, max_value=100.0,
                                    allow_nan=False)),
                min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_energy_bounded_by_extreme_powers(transitions):
    meter = EnergyMeter()
    t = 0.0
    for state, dt in transitions:
        t += dt
        meter.transition(state, t)
    meter.finalize(t)
    assert 0.045 * t - 1e-9 <= meter.energy_joules() <= 1.15 * t + 1e-9


# --- Route cache -------------------------------------------------------------

def paths_strategy(owner=0):
    tail = st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                    max_size=6, unique=True)
    return tail.map(lambda t: (owner, *t))


@given(st.lists(paths_strategy(), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=50, deadline=None)
def test_cache_routes_are_loop_free_and_start_at_owner(paths, dst):
    cache = RouteCache(0, capacity=16, primary_capacity=8)
    for i, path in enumerate(paths):
        cache.add_path(path, now=float(i), source="overhear")
    route = cache.route_to(dst, now=1000.0)
    if route is not None:
        assert route[0] == 0
        assert route[-1] == dst
        assert len(set(route)) == len(route)


@given(st.lists(paths_strategy(), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=50, deadline=None)
def test_cache_no_route_through_removed_link(paths, a, b):
    if a == b:
        return
    cache = RouteCache(0, capacity=64, primary_capacity=32)
    for i, path in enumerate(paths):
        cache.add_path(path, now=float(i), source="rrep")
    cache.remove_link(a, b)
    for cached in cache.paths():
        for i in range(len(cached.path) - 1):
            hop = (cached.path[i], cached.path[i + 1])
            assert hop != (a, b) and hop != (b, a)


@given(st.lists(paths_strategy(), min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_cache_capacity_never_exceeded(paths):
    cache = RouteCache(0, capacity=10, primary_capacity=5)
    for i, path in enumerate(paths):
        cache.add_path(path, now=float(i), source="overhear")
        assert len(cache) <= 15


class _MinScanCache:
    """Reference two-segment cache that evicts by scanning with ``min()``.

    Plain dicts (insertion order is segment order) and the full-segment
    ``min(..., key=(last_used, added_at))`` eviction whose first-in-dict
    tie-break ``RouteCache``'s heap must reproduce.
    """

    _LRU = attrgetter("last_used", "added_at")

    def __init__(self, capacity, primary_capacity):
        self.primary, self.secondary = {}, {}
        self.capacity, self.primary_capacity = capacity, primary_capacity

    def _evict_if_full(self, seg):
        bound = (self.primary_capacity if seg is self.primary
                 else self.capacity)
        if len(seg) >= bound:
            del seg[min(seg.values(), key=self._LRU).path]

    def add_path(self, path, now, source):
        for seg in (self.primary, self.secondary):
            covering = seg.get(path) or next(
                (e for e in seg.values() if e.path[:len(path)] == path), None)
            if covering is not None:
                covering.last_used = now
                return False
        seg = self.primary if source in PRIMARY_SOURCES else self.secondary
        self._evict_if_full(seg)
        seg[path] = CachedPath(path, now, now, source)
        return True

    def route_to(self, dst, now):
        best = best_seg = None
        for seg in (self.primary, self.secondary):
            for entry in seg.values():
                if dst in entry.path[1:] and (
                        best is None
                        or entry.path.index(dst) < best.path.index(dst)):
                    best, best_seg = entry, seg
        if best is None:
            return None
        best.last_used = now
        best.uses += 1
        if best_seg is self.secondary:
            del self.secondary[best.path]
            self._evict_if_full(self.primary)
            self.primary[best.path] = best
        return best.path[:best.path.index(dst) + 1]

    def remove_link(self, a, b):
        affected = 0
        for seg in (self.primary, self.secondary):
            cuts = [(e, i) for e in seg.values()
                    for i in range(len(e.path) - 1)
                    if {e.path[i], e.path[i + 1]} == {a, b}]
            for entry, i in cuts:
                affected += 1
                del seg[entry.path]
                prefix = entry.path[:i + 1]
                if len(prefix) >= 2 and prefix not in seg:
                    seg[prefix] = CachedPath(prefix, entry.added_at,
                                             entry.last_used, entry.source,
                                             entry.uses)
        return affected

    def clear(self):
        self.primary.clear()
        self.secondary.clear()


def _segment_state(entries):
    return [(e.path, e.added_at, e.last_used, e.source, e.uses)
            for e in entries.values()]


_small_paths = st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                        max_size=3, unique=True).map(lambda t: (0, *t))
_dt = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])
_add_op = st.tuples(
    st.just("add"), _small_paths,
    st.sampled_from(sorted(PRIMARY_SOURCES | {"overhear", "rreq"})), _dt)
_route_op = st.tuples(st.just("route"), st.integers(min_value=1, max_value=8),
                      _dt)
_remove_link_op = st.tuples(st.just("remove_link"),
                            st.integers(min_value=0, max_value=8),
                            st.integers(min_value=1, max_value=8))
_op_by_kind = {"add": _add_op, "route": _route_op,
               "remove_link": _remove_link_op,
               "clear": st.tuples(st.just("clear"))}
# Weighted towards inserts so segments fill and evict between the rare
# clears.
_cache_ops = st.sampled_from(
    ["add"] * 12 + ["route"] * 4 + ["remove_link"] * 3 + ["clear"]
).flatmap(_op_by_kind.__getitem__)


@given(capacity=st.integers(min_value=1, max_value=6),
       primary_capacity=st.integers(min_value=1, max_value=6),
       ops=st.lists(_cache_ops, min_size=40, max_size=120))
@settings(max_examples=200, deadline=None)
def test_cache_matches_min_scan_reference(capacity, primary_capacity, ops):
    """Heap eviction picks the same victim as a min() scan, every time."""
    cache = RouteCache(0, capacity=capacity,
                       primary_capacity=primary_capacity)
    model = _MinScanCache(capacity, primary_capacity)
    now = 0.0
    for op in ops:
        now = _step_both(cache, model, op, now)


def _step_both(cache, model, op, now):
    """Apply ``op`` to the cache and the reference; compare; return time."""
    if op[0] == "add":
        _, path, source, dt = op
        now += dt
        got = (cache.add_path(path, now, source),
               model.add_path(path, now, source))
    elif op[0] == "route":
        _, dst, dt = op
        now += dt
        got = cache.route_to(dst, now), model.route_to(dst, now)
    elif op[0] == "remove_link":
        _, a, b = op
        got = cache.remove_link(a, b), model.remove_link(a, b)
    else:
        got = cache.clear(), model.clear()
    assert got[0] == got[1], op
    assert (_segment_state(cache._primary.entries)
            == _segment_state(model.primary)), op
    assert (_segment_state(cache._secondary.entries)
            == _segment_state(model.secondary)), op
    return now


@given(capacity=st.integers(min_value=1, max_value=3),
       primary_capacity=st.integers(min_value=1, max_value=3),
       adds=st.lists(_add_op, min_size=6, max_size=30),
       dt=_dt, follow_up=st.sampled_from(["route", "remove_link"]))
@settings(max_examples=200, deadline=None)
def test_recycled_entries_match_min_scan_reference(
        capacity, primary_capacity, adds, dt, follow_up):
    """A full segment stores a new path in its victim's entry object.

    The recycled object must read exactly like a fresh entry (no
    leftover ``uses``, ``source`` or times of the path it held) through
    everything that can follow: a promotion by ``route_to`` and a
    truncation by ``remove_link``.
    """
    cache = RouteCache(0, capacity=capacity,
                       primary_capacity=primary_capacity)
    model = _MinScanCache(capacity, primary_capacity)
    now = 0.0
    recycled = None
    for op in adds:
        # Entries hash by identity: an object that held another path
        # before this step was recycled by it.
        held = {e: e.path for e in cache.paths()}
        now = _step_both(cache, model, op, now)
        for entry in cache.paths():
            if held.get(entry, entry.path) != entry.path:
                recycled = entry
    assume(recycled is not None)
    # Use the recycled entry (a secondary one is promoted), then cut its
    # last link, which truncates or drops whatever holds it by then.
    path = recycled.path
    now = _step_both(cache, model, ("route", path[-1], dt), now)
    if follow_up == "remove_link":
        _step_both(cache, model, ("remove_link", path[-2], path[-1]), now)


# --- Source-route indexing ----------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=100), min_size=2,
                max_size=10, unique=True))
@settings(max_examples=50, deadline=None)
def test_data_packet_advance_walks_entire_route(route):
    packet = DataPacket(src=route[0], dst=route[-1], uid=next_uid(),
                        created_at=0.0, trip_route=tuple(route), trip_index=0,
                        payload_bytes=10)
    visited = [packet.trip_route[packet.trip_index]]
    while packet.trip_index + 1 != len(packet.trip_route) - 1:
        packet = packet.advance()
        visited.append(packet.trip_route[packet.trip_index])
    visited.append(packet.next_hop)
    assert visited == list(route)


# --- Statistics ---------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=100))
@settings(max_examples=50, deadline=None)
def test_variance_nonnegative_and_zero_for_constant(values):
    assert sample_variance(values) >= 0.0
    assert sample_variance([values[0]] * len(values)) == pytest.approx(
        0.0, abs=1e-6)
