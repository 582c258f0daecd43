"""Tests for overhearing levels and sender/receiver policies."""

import random

import pytest

from repro.core.policy import (
    NoOverhearing,
    OverhearingLevel,
    RandomizedOverhearing,
    RcastPolicy,
    UnconditionalOverhearing,
)
from repro.errors import ConfigurationError


class Pkt:
    def __init__(self, kind):
        self.kind = kind


class Ann:
    """Minimal announcement for receiver-side decisions."""

    def __init__(self, sender=0):
        self.sender = sender
        self.level = OverhearingLevel.RANDOMIZED


def test_no_overhearing_policy():
    policy = NoOverhearing()
    for kind in ("data", "rrep", "rerr", "rreq"):
        assert policy.level_for(Pkt(kind)) is OverhearingLevel.NONE


def test_unconditional_policy():
    policy = UnconditionalOverhearing()
    for kind in ("data", "rrep", "rerr"):
        assert policy.level_for(Pkt(kind)) is OverhearingLevel.UNCONDITIONAL


def test_rcast_policy_paper_table():
    """Paper Section 3.3: data/RREP randomized, RERR unconditional."""
    policy = RcastPolicy()
    assert policy.level_for(Pkt("data")) is OverhearingLevel.RANDOMIZED
    assert policy.level_for(Pkt("rrep")) is OverhearingLevel.RANDOMIZED
    assert policy.level_for(Pkt("rerr")) is OverhearingLevel.UNCONDITIONAL
    assert policy.level_for(Pkt("rreq")) is OverhearingLevel.UNCONDITIONAL


def test_rcast_policy_unknown_kind_defaults_to_randomized():
    assert RcastPolicy().level_for(Pkt("exotic")) is OverhearingLevel.RANDOMIZED


def test_rcast_policy_requires_kind():
    with pytest.raises(ConfigurationError):
        RcastPolicy().level_for(object())


def test_randomized_probability_clamped():
    decider = RandomizedOverhearing(random.Random(1), lambda a: 7.5)
    assert decider.probability(Ann()) == 1.0
    decider = RandomizedOverhearing(random.Random(1), lambda a: -3.0)
    assert decider.probability(Ann()) == 0.0


def test_randomized_decide_rate_matches_probability():
    """Empirical election rate converges to P_R (paper: P_R = 1/n)."""
    decider = RandomizedOverhearing(random.Random(42), lambda a: 0.2)
    n = 20000
    hits = sum(decider.decide(Ann()) for _ in range(n))
    assert hits / n == pytest.approx(0.2, abs=0.01)
    assert decider.decisions == n
    assert decider.overhears == hits


def test_randomized_zero_probability_never_overhears():
    decider = RandomizedOverhearing(random.Random(3), lambda a: 0.0)
    assert not any(decider.decide(Ann()) for _ in range(100))


def test_randomized_one_probability_always_overhears():
    decider = RandomizedOverhearing(random.Random(3), lambda a: 1.0)
    assert all(decider.decide(Ann()) for _ in range(100))


def test_policy_names():
    assert NoOverhearing.name == "none"
    assert UnconditionalOverhearing.name == "unconditional"
    assert RcastPolicy.name == "rcast"
