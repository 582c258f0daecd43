"""Tests for role-number tracking."""

from repro.metrics.role import RoleTracker


def test_intermediates_credited():
    tracker = RoleTracker(5)
    tracker.record_route((0, 1, 2, 3))
    assert list(tracker.counts()) == [0, 1, 1, 0, 0]


def test_endpoints_never_credited():
    tracker = RoleTracker(3)
    tracker.record_route((0, 2))  # direct route: no intermediates
    assert tracker.counts().sum() == 0


def test_accumulates_over_routes():
    tracker = RoleTracker(4)
    tracker.record_route((0, 1, 3))
    tracker.record_route((2, 1, 0))
    assert list(tracker.counts()) == [0, 2, 0, 0]


def test_max_role():
    tracker = RoleTracker(4)
    for _ in range(3):
        tracker.record_route((0, 2, 3))
    tracker.record_route((0, 1, 3))
    assert tracker.max_role() == 3


def test_counts_returns_copy():
    tracker = RoleTracker(3)
    tracker.record_route((0, 1, 2))
    counts = tracker.counts()
    counts[1] = 99
    assert tracker.counts()[1] == 1
