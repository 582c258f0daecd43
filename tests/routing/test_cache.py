"""Tests for the two-segment DSR route cache."""

import pytest

from repro.errors import RoutingError
from repro.routing.dsr.cache import RouteCache


def test_add_and_route_to():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2, 3), now=0.0, source="rrep")
    assert cache.route_to(3, 1.0) == (0, 1, 2, 3)


def test_prefix_provides_intermediate_routes():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2, 3), now=0.0, source="rrep")
    assert cache.route_to(2, 1.0) == (0, 1, 2)
    assert cache.route_to(1, 1.0) == (0, 1)


def test_route_to_prefers_shortest():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2, 3, 9), now=0.0, source="rrep")
    cache.add_path((0, 4, 9), now=0.0, source="rrep")
    assert cache.route_to(9, 1.0) == (0, 4, 9)


def test_miss_returns_none_and_counts():
    cache = RouteCache(0)
    cache.add_path((0, 1), now=0.0, source="rrep")
    assert cache.route_to(5, 0.0) is None
    assert [entry.uses for entry in cache.paths()] == [0]


def test_path_must_start_at_owner():
    cache = RouteCache(0)
    with pytest.raises(RoutingError):
        cache.add_path((1, 2), now=0.0)


def test_loops_rejected():
    cache = RouteCache(0)
    with pytest.raises(RoutingError):
        cache.add_path((0, 1, 0), now=0.0)


def test_short_path_rejected():
    cache = RouteCache(0)
    with pytest.raises(RoutingError):
        cache.add_path((0,), now=0.0)


def test_duplicate_refreshes_not_inserted():
    cache = RouteCache(0)
    assert cache.add_path((0, 1, 2), now=0.0, source="rrep") is True
    assert cache.add_path((0, 1, 2), now=5.0, source="rrep") is False
    assert len(cache) == 1


def test_prefix_of_existing_adds_nothing():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2, 3), now=0.0, source="rrep")
    assert cache.add_path((0, 1, 2), now=1.0, source="rrep") is False
    assert len(cache) == 1


def test_primary_extension_refreshed_before_secondary_exact():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2), now=0.0, source="overhear")  # secondary
    cache.add_path((0, 1, 2, 3), now=0.0, source="rrep")   # primary
    assert cache.add_path((0, 1, 2), now=5.0, source="overhear") is False
    assert cache._primary.entries[(0, 1, 2, 3)].last_used == 5.0
    assert cache._secondary.entries[(0, 1, 2)].last_used == 0.0


def test_primary_and_secondary_segments():
    cache = RouteCache(0, capacity=4, primary_capacity=4)
    cache.add_path((0, 1, 2), now=0.0, source="rrep")      # primary
    cache.add_path((0, 3, 4), now=0.0, source="overhear")  # secondary
    sources = sorted(c.source for c in cache.paths())
    assert sources == ["overhear", "rrep"]
    assert len(cache) == 2


def test_overheard_flood_cannot_evict_primary_route():
    """The Hu & Johnson property: passive junk never evicts active routes."""
    cache = RouteCache(0, capacity=4, primary_capacity=4)
    cache.add_path((0, 1, 9), now=0.0, source="rrep")
    for i in range(50):
        cache.add_path((0, 2, 100 + i), now=1.0 + i, source="overhear")
    assert cache.route_to(9, 100.0) == (0, 1, 9)


def test_secondary_eviction_is_lru():
    cache = RouteCache(0, capacity=2, primary_capacity=2)
    cache.add_path((0, 1, 10), now=0.0, source="overhear")
    cache.add_path((0, 2, 20), now=1.0, source="overhear")
    cache.route_to(10, 2.0)  # freshen the first (also promotes it)
    cache.add_path((0, 3, 30), now=3.0, source="overhear")
    cache.add_path((0, 4, 40), now=4.0, source="overhear")
    assert (0, 2, 20) not in cache  # least recently used secondary entry
    assert (0, 3, 30) in cache
    assert cache.route_to(10, 9.0) is not None  # promoted, safe
    assert cache.route_to(40, 9.0) is not None


def test_eviction_tie_on_last_used_evicts_older_added_at():
    cache = RouteCache(0, capacity=2, primary_capacity=2)
    cache.add_path((0, 1, 10), now=0.0, source="overhear")
    cache.add_path((0, 2, 20), now=1.0, source="rrep")
    # Promotion appends the older entry after (0, 2, 20) in the primary
    # segment, with the same last_used.
    cache.route_to(10, 1.0)
    cache.add_path((0, 3, 30), now=2.0, source="rrep")
    assert (0, 1, 10) not in cache
    assert (0, 2, 20) in cache


def test_eviction_full_tie_evicts_first_inserted():
    cache = RouteCache(0, capacity=2, primary_capacity=2)
    cache.add_path((0, 2, 20), now=0.0, source="overhear")
    cache.add_path((0, 1, 10), now=0.0, source="overhear")
    cache.add_path((0, 3, 30), now=1.0, source="overhear")
    assert (0, 2, 20) not in cache
    assert (0, 1, 10) in cache


def test_refreshed_entry_survives_later_eviction():
    cache = RouteCache(0, capacity=2, primary_capacity=2)
    cache.add_path((0, 1, 10), now=0.0, source="overhear")
    cache.add_path((0, 2, 20), now=1.0, source="overhear")
    assert cache.add_path((0, 1, 10), now=2.0, source="overhear") is False
    cache.add_path((0, 3, 30), now=3.0, source="overhear")
    assert (0, 1, 10) in cache
    assert (0, 2, 20) not in cache
    cache.add_path((0, 4, 40), now=4.0, source="overhear")
    assert (0, 1, 10) not in cache  # last used at 2.0, before (0, 3, 30)
    assert (0, 3, 30) in cache


def test_promotion_on_use():
    cache = RouteCache(0, capacity=8, primary_capacity=8)
    cache.add_path((0, 1, 9), now=0.0, source="overhear")
    assert (0, 1, 9) in cache._secondary.entries
    cache.route_to(9, 1.0)
    assert (0, 1, 9) in cache._primary.entries
    # Now a secondary flood cannot touch it.
    for i in range(20):
        cache.add_path((0, 2, 50 + i), now=2.0 + i, source="overhear")
    assert cache.route_to(9, 100.0) == (0, 1, 9)


def test_remove_link_truncates_path():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2, 3), now=0.0, source="rrep")
    affected = cache.remove_link(2, 3)
    assert affected == 1
    assert cache.route_to(3, 1.0) is None
    assert cache.route_to(2, 1.0) == (0, 1, 2)  # surviving prefix


def test_remove_link_either_direction():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2), now=0.0, source="rrep")
    assert cache.remove_link(2, 1) == 1
    assert cache.route_to(2, 1.0) is None


def test_remove_first_link_drops_path():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2), now=0.0, source="rrep")
    cache.remove_link(0, 1)
    assert len(cache) == 0


def test_remove_link_untouched_paths_survive():
    cache = RouteCache(0)
    cache.add_path((0, 1, 2), now=0.0, source="rrep")
    cache.add_path((0, 4, 5), now=0.0, source="rrep")
    cache.remove_link(1, 2)
    assert cache.route_to(5, 1.0) == (0, 4, 5)


def test_has_route_to_does_not_touch_counters():
    cache = RouteCache(0)
    cache.add_path((0, 1), now=0.0, source="rrep")
    assert cache.has_route_to(1)
    assert not cache.has_route_to(9)
    [entry] = cache.paths()
    assert (entry.last_used, entry.uses) == (0.0, 0)


def test_clear():
    cache = RouteCache(0)
    cache.add_path((0, 1), now=0.0, source="rrep")
    cache.clear()
    assert len(cache) == 0


def test_invalid_capacity():
    with pytest.raises(RoutingError):
        RouteCache(0, capacity=0)
    with pytest.raises(RoutingError):
        RouteCache(0, primary_capacity=0)


def test_full_segment_reuses_the_victims_entry_as_a_fresh_one():
    cache = RouteCache(0, primary_capacity=1)
    cache.add_path((0, 1, 2), now=0.0, source="rrep")
    victim = cache._primary.entries[(0, 1, 2)]
    assert cache.route_to(2, 1.0) == (0, 1, 2)
    assert victim.uses == 1
    assert cache.add_path((0, 3, 4), now=2.0, source="forward")
    primary = cache._primary
    assert list(primary.entries.values()) == [victim]
    assert (victim.path, victim.added_at, victim.last_used, victim.source,
            victim.uses) == ((0, 3, 4), 2.0, 2.0, "forward", 0)
    assert primary.by_hop == {3: [victim]}
    assert len(primary.heap) == 1
    assert (0, 1, 2) not in cache and len(cache) == 1
