"""Unit tests for the adaptive P_R policies (:mod:`repro.core.adaptive`).

The statistical behaviour is covered by ``tests/statistics``; these tests
pin the arithmetic: EWMA folding, cold-start fallback, controller step
direction and clamping, bandit value updates and arm selection, factory
wiring, and reset semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.constants import (
    ADAPTIVE_BANDIT_COST_WEIGHT,
    ADAPTIVE_BANDIT_EPSILON,
    ADAPTIVE_DEGREE_ALPHA,
    ADAPTIVE_DEGREE_COLD_DEGREE,
    ADAPTIVE_DEGREE_WARMUP_WINDOWS,
    ADAPTIVE_DEGREE_WINDOW_EPOCHS,
    ADAPTIVE_ENERGY_M_MAX,
    ADAPTIVE_ENERGY_M_MIN,
    ADAPTIVE_ENERGY_SETPOINT,
)
from repro.core.adaptive import (
    ADAPTIVE_POLICIES,
    BANDIT_ARM_LABELS,
    EnergyBudgetPolicy,
    EpsilonGreedyBanditPolicy,
    MeasuredDegreePolicy,
    OVERHEARING_POLICIES,
    adaptive_run_summary,
    make_policy,
)
from repro.core.policy import OverhearingLevel
from repro.errors import ConfigurationError


class Ann:
    """Minimal announcement for P_R reads."""

    def __init__(self, sender=0):
        self.sender = sender
        self.level = OverhearingLevel.RANDOMIZED


ANN = Ann()


def close_window(policy: MeasuredDegreePolicy, senders=()):
    for sender in senders:
        policy.on_announcement_heard(sender)
    fields = None
    for _ in range(ADAPTIVE_DEGREE_WINDOW_EPOCHS):
        fields = policy.on_epoch(0.0)
    return fields


def warm_up(policy: MeasuredDegreePolicy, senders):
    """Fold ``senders`` into as many windows as the warm-up needs."""
    for _ in range(ADAPTIVE_DEGREE_WARMUP_WINDOWS):
        close_window(policy, senders)
    assert policy.warm


class TestMeasuredDegree:
    def test_cold_start_uses_conservative_constant(self):
        policy = MeasuredDegreePolicy()
        assert not policy.warm
        assert policy(ANN) == pytest.approx(1.0 / ADAPTIVE_DEGREE_COLD_DEGREE)

    def test_first_window_seeds_estimate_directly(self):
        policy = MeasuredDegreePolicy()
        close_window(policy, [3, 5, 5, 9])  # 3 distinct senders
        assert policy.estimate == pytest.approx(3.0)

    def test_ewma_arithmetic(self):
        policy = MeasuredDegreePolicy()
        warm_up(policy, [1, 2, 3, 4])         # seed 4, then 4 + a*(4-4)
        close_window(policy, [1, 2])          # 4 + a*(2-4)
        expected = 4.0 + ADAPTIVE_DEGREE_ALPHA * (2.0 - 4.0)
        assert policy.estimate == pytest.approx(expected)
        assert policy(ANN) == pytest.approx(1.0 / expected)

    def test_warmup_gates_the_estimate(self):
        policy = MeasuredDegreePolicy()
        for _ in range(ADAPTIVE_DEGREE_WARMUP_WINDOWS - 1):
            close_window(policy, [1, 2])
            assert not policy.warm
            assert policy(ANN) == pytest.approx(
                1.0 / ADAPTIVE_DEGREE_COLD_DEGREE)
        close_window(policy, [1, 2])
        assert policy.warm
        assert policy(ANN) == pytest.approx(0.5)

    def test_silent_window_leaves_estimate_untouched(self):
        policy = MeasuredDegreePolicy()
        close_window(policy, [1, 2, 3])
        estimate, windows = policy.estimate, policy._active_windows
        fields = close_window(policy)          # nothing heard
        assert fields["heard"] == 0
        assert policy.estimate == estimate
        assert policy._active_windows == windows

    def test_mid_window_epoch_returns_no_trace(self):
        policy = MeasuredDegreePolicy()
        policy.on_announcement_heard(1)
        for _ in range(ADAPTIVE_DEGREE_WINDOW_EPOCHS - 1):
            assert policy.on_epoch(0.0) is None
        assert policy.on_epoch(0.0) is not None  # window boundary

    def test_estimate_floor_is_one(self):
        # A lone announcing neighbor must not push P_R above 1.
        policy = MeasuredDegreePolicy()
        warm_up(policy, [7])
        assert policy(ANN) == pytest.approx(1.0)


def energy_policy(awake_fn, remaining=1.0) -> EnergyBudgetPolicy:
    return EnergyBudgetPolicy(
        neighbor_count_fn=lambda: 10,
        awake_seconds_fn=awake_fn,
        remaining_fraction_fn=lambda now: remaining,
        beacon_interval=0.25,
        rng=random.Random(1),
    )


class TestEnergyBudget:
    def test_initial_probability_is_one_over_n(self):
        policy = energy_policy(lambda now: 0.0)
        assert policy(ANN) == pytest.approx(0.1)

    def test_first_epoch_only_arms_the_baseline(self):
        policy = energy_policy(lambda now: 0.0)
        assert policy.on_epoch(0.25) is None
        assert policy.multiplier == 1.0

    def test_under_target_steps_multiplier_up(self):
        # Radio slept the whole interval: awake fraction 0 < target.
        awake = iter([0.0, 0.0])
        policy = energy_policy(lambda now: next(awake))
        policy.on_epoch(0.25)
        fields = policy.on_epoch(0.50)
        assert fields["awake_frac"] == 0.0
        assert policy.multiplier > 1.0

    def test_over_target_steps_multiplier_down(self):
        # Radio awake the whole interval: fraction 1 > any target.
        awake = iter([0.25, 0.50])
        policy = energy_policy(lambda now: next(awake))
        policy.on_epoch(0.25)
        fields = policy.on_epoch(0.50)
        assert fields["awake_frac"] == 1.0
        assert policy.multiplier < 1.0

    def test_multiplier_clamps_at_rails(self):
        for awake_fn, rail in (
                (lambda now: 0.0, ADAPTIVE_ENERGY_M_MAX),  # never awake
                (lambda now: now, ADAPTIVE_ENERGY_M_MIN)):  # always awake
            policy = energy_policy(awake_fn)
            policy.on_epoch(0.25)
            for i in range(50):
                policy.on_epoch(0.25 * (i + 2))
            assert policy.multiplier == pytest.approx(rail)

    def test_draining_battery_lowers_the_target(self):
        # Same awake fraction, but an empty battery turns a comfortable
        # margin into an over-budget reading.
        fields = {}
        for remaining in (1.0, 0.0):
            awake = iter([0.0, 0.05])  # fraction 0.2 < setpoint 0.35
            policy = energy_policy(lambda now: next(awake),
                                   remaining=remaining)
            policy.on_epoch(0.25)
            fields[remaining] = policy.on_epoch(0.50)
        assert fields[1.0]["target"] == pytest.approx(ADAPTIVE_ENERGY_SETPOINT)
        assert fields[0.0]["target"] == 0.0
        assert fields[1.0]["multiplier"] > 1.0   # under budget: up
        assert fields[0.0]["multiplier"] < 1.0   # no budget left: down


class StubRng:
    """Every ``random()`` draw returns ``value``; ``randrange`` the top."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def randrange(self, n):
        return n - 1


def bandit_policy(awake_fn=lambda now: 0.0, rng=None) -> EpsilonGreedyBanditPolicy:
    return EpsilonGreedyBanditPolicy(
        neighbor_count_fn=lambda: 10,
        awake_seconds_fn=awake_fn,
        beacon_interval=0.25,
        rng=rng if rng is not None else random.Random(1),
    )


class TestEpsilonGreedyBandit:
    def test_arm_levels(self):
        policy = bandit_policy()
        for arm, expected in ((0, 0.05), (1, 0.1), (2, 0.2), (3, 1.0)):
            policy.arm = arm
            assert policy(ANN) == pytest.approx(expected)

    def test_starts_at_the_papers_arm(self):
        assert bandit_policy().arm == 1
        assert BANDIT_ARM_LABELS[1] == "1/n"

    def test_reward_is_taps_minus_weighted_awake_fraction(self):
        awake = iter([0.0, 0.125])  # second interval: fraction 0.5
        policy = bandit_policy(lambda now: next(awake))
        policy.on_epoch(0.25)       # arms the baseline, re-selects an arm
        incumbent = policy.arm
        policy.on_overhear_delivered()
        policy.on_overhear_delivered()
        policy.on_overhear_delivered()
        fields = policy.on_epoch(0.50)
        reward = 3.0 - ADAPTIVE_BANDIT_COST_WEIGHT * 0.5
        assert fields["reward"] == pytest.approx(reward)
        assert policy.values[incumbent] == pytest.approx(reward)
        assert policy.pulls[incumbent] == 1

    def test_incremental_mean_over_pulls(self):
        policy = bandit_policy()
        policy.values[1] = 4.0
        policy.pulls[1] = 1
        policy._last_awake = 0.0
        policy._taps = 0            # this interval's reward: 0
        policy.on_epoch(0.25)
        assert policy.values[1] == pytest.approx(2.0)  # (4 + 0) / 2
        assert policy.pulls[1] == 2

    def test_greedy_picks_best_value_ties_to_lowest_arm(self):
        policy = bandit_policy()
        policy.values = [1.0, 3.0, 3.0, 0.0]
        assert policy._greedy_arm() == 1
        policy.values = [5.0, 3.0, 3.0, 0.0]
        assert policy._greedy_arm() == 0

    def test_epsilon_zero_never_explores(self):
        """Draws at or above epsilon act as epsilon = 0: always greedy."""
        policy = bandit_policy(rng=StubRng(ADAPTIVE_BANDIT_EPSILON))
        for i in range(40):
            policy.on_epoch(0.25 * (i + 1))
        assert policy.explore_counts == [0, 0, 0, 0]
        assert sum(policy.arm_counts) == 40

    def test_epsilon_one_always_explores(self):
        """Draws below epsilon act as epsilon = 1: always explore."""
        policy = bandit_policy(rng=StubRng(0.0))
        for i in range(40):
            policy.on_epoch(0.25 * (i + 1))
        assert policy.explore_counts == [0, 0, 0, 40]
        assert policy.explore_counts == policy.arm_counts

    def test_explore_trace_field_matches_histogram(self):
        policy = bandit_policy()
        explores = 0
        for i in range(200):
            fields = policy.on_epoch(0.25 * (i + 1))
            explores += 1 if fields["explore"] else 0
        assert explores
        assert explores == sum(policy.explore_counts)


class TestFactory:
    @staticmethod
    def build(name, rng_calls):
        def rng_factory():
            rng_calls.append(name)
            return random.Random(3)

        return make_policy(
            name,
            neighbor_count_fn=lambda: 5,
            awake_seconds_fn=lambda now: 0.0,
            remaining_fraction_fn=lambda now: 1.0,
            beacon_interval=0.25,
            rng_factory=rng_factory,
        )

    def test_fixed_returns_none(self):
        assert self.build("fixed", []) is None

    def test_builds_each_adaptive_policy(self):
        for name in ADAPTIVE_POLICIES:
            policy = self.build(name, [])
            assert policy is not None
            assert policy.name == name

    def test_rng_factory_only_invoked_when_consumed(self):
        # degree (and fixed) must not create an adaptive stream: their
        # presence in the RNG ledger would shift every derived seed.
        calls = []
        self.build("fixed", calls)
        self.build("degree", calls)
        assert calls == []
        self.build("energy", calls)
        self.build("bandit", calls)
        assert calls == ["energy", "bandit"]

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown overhearing"):
            self.build("bogus", [])

    def test_policy_tuple_shape(self):
        assert OVERHEARING_POLICIES == ("fixed",) + ADAPTIVE_POLICIES


class TestRunSummary:
    def test_degree_summary_folds_only_warm_nodes(self):
        warm = MeasuredDegreePolicy()
        warm_up(warm, [1, 2, 3, 4])            # estimate 4, true 6
        cold = MeasuredDegreePolicy()
        close_window(cold, [1])                # one window: still cold
        summary = adaptive_run_summary(
            "degree", [(0, warm), (1, cold)], lambda node: 6)
        assert summary["warm_nodes"] == 1
        assert summary["mean_estimate"] == pytest.approx(4.0)
        assert summary["estimator_mae"] == pytest.approx(2.0)
        assert summary["mean_true_degree"] == pytest.approx(6.0)

    def test_bandit_summary_sums_histograms(self):
        a, b = bandit_policy(), bandit_policy()
        a.arm_counts = [1, 2, 3, 4]
        b.arm_counts = [10, 20, 30, 40]
        a.explore_counts = [1, 0, 0, 0]
        b.explore_counts = [0, 0, 0, 2]
        summary = adaptive_run_summary("bandit", [(0, a), (1, b)],
                                       lambda node: 0)
        assert summary["arm_counts"] == [11, 22, 33, 44]
        assert summary["explore_counts"] == [1, 0, 0, 2]
        assert summary["arm_labels"] == list(BANDIT_ARM_LABELS)

    def test_energy_summary_means_multipliers(self):
        a = energy_policy(lambda now: 0.0)
        b = energy_policy(lambda now: 0.0)
        a.multiplier, b.multiplier = 2.0, 4.0
        summary = adaptive_run_summary("energy", [(0, a), (1, b)],
                                       lambda node: 0)
        assert summary["mean_multiplier"] == pytest.approx(3.0)

    def test_empty_run_is_well_defined(self):
        summary = adaptive_run_summary("degree", [], lambda node: 0)
        assert summary["warm_nodes"] == 0
        assert summary["mean_estimate"] is None
        assert summary["estimator_mae"] is None
