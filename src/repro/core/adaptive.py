"""Adaptive receiver-side overhearing probabilities (P_R policies).

The paper fixes the receiver-side overhearing probability at
``P_R = 1/n`` with ``n`` read from an oracle neighbor table.  This module
supplies three *adaptive* alternatives behind the same
:class:`repro.core.policy.RandomizedOverhearing` ``probability_fn`` seam,
selected per run via ``SimulationConfig.overhearing_policy``:

``degree`` — :class:`MeasuredDegreePolicy`
    An online neighbor-count estimator fed exclusively from overheard
    ATIM/beacon activity: every announcement processed during an ATIM
    window contributes its sender to the epoch's *heard set*, and at each
    beacon boundary the set size updates an EWMA degree estimate.  No
    oracle access to the position service.  While the estimate is cold
    (fewer than ``ADAPTIVE_DEGREE_WARMUP_WINDOWS`` active windows) the
    policy falls back to a Berenbrink-style conservative constant
    ``1/ADAPTIVE_DEGREE_COLD_DEGREE`` — assume a dense unknown
    neighborhood and overhear seldom, exactly the operate-without-knowing-n
    stance of "Energy Efficient Randomised Communication in Unknown AdHoc
    Networks".

``energy`` — :class:`EnergyBudgetPolicy`
    ``P_R = multiplier / n`` where the multiplier is driven by a
    residual-energy awake-fraction controller: each epoch compares the
    fraction of the beacon interval the radio spent awake against a
    setpoint scaled by the remaining battery fraction, then applies a
    clamped multiplicative increase/decrease.  The step size is dithered
    with a draw from the node's ``adaptive:<node>`` derived stream so a
    synchronized population does not oscillate in lockstep.

``bandit`` — :class:`EpsilonGreedyBanditPolicy`
    An epsilon-greedy bandit over the discrete P_R levels
    ``{1/2n, 1/n, 2/n, 1}``.  The per-epoch reward is the number of
    delivered overhears minus ``ADAPTIVE_BANDIT_COST_WEIGHT`` times the
    awake fraction — i.e. route-harvest value minus energy spent awake.
    Exploration draws come from the ``adaptive:<node>`` stream.

Determinism: every policy mutates state only inside the per-node epoch
callback (:meth:`AdaptivePolicy.on_epoch`, driven from the PSM beacon
body) and the two O(1) per-signal hooks — no per-event global scans
(R012-clean).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    ADAPTIVE_ENERGY_STEP,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import random

    from repro.mac.frames import Announcement

#: Adaptive policy keys (the ``fixed`` default is not adaptive).
ADAPTIVE_POLICIES = ("degree", "energy", "bandit")

#: Every accepted ``SimulationConfig.overhearing_policy`` value.
OVERHEARING_POLICIES = ("fixed",) + ADAPTIVE_POLICIES


class AdaptivePolicy:
    """Receiver-side adaptive P_R policy for one node.

    Instances plug into :class:`~repro.core.policy.RandomizedOverhearing`
    as the base ``probability_fn`` (via ``__call__``) and receive three
    signals from the PSM MAC:

    * :meth:`on_announcement_heard` — an ATIM advertisement from a
      neighbor was processed this window (any destination);
    * :meth:`on_overhear_delivered` — a frame from an elected overhear
      sender actually reached us (the harvest the bandit rewards);
    * :meth:`on_epoch` — the beacon boundary; the only place estimator /
      controller / bandit state may update.
    """

    #: label used in traces and summaries
    name = "abstract"

    def __call__(self, announcement: "Announcement") -> float:
        """Current P_R for ``announcement`` (pure read of policy state)."""
        raise NotImplementedError

    def on_announcement_heard(self, sender: int) -> None:
        """O(1) hook: an ATIM from ``sender`` was processed this window."""

    def on_overhear_delivered(self) -> None:
        """O(1) hook: one elected-overhear frame was delivered to us."""

    def on_epoch(self, now: float) -> Optional[Dict[str, Any]]:
        """Beacon-boundary update; returns trace fields or None."""
        raise NotImplementedError


class MeasuredDegreePolicy(AdaptivePolicy):
    """P_R = 1 / EWMA degree estimate measured from heard announcements.

    The estimator is a pure function of the sequence of
    ``on_announcement_heard`` / ``on_epoch`` calls.  Announce epochs are
    grouped into measurement windows of ``ADAPTIVE_DEGREE_WINDOW_EPOCHS``
    beacon intervals; each window contributes the number of *distinct*
    senders heard across it, ``d``, via ``est <- est +
    ADAPTIVE_DEGREE_ALPHA * (d - est)``.  The window union matters: in any
    single beacon interval only the neighbors with buffered traffic
    announce, so a per-interval count would systematically undercount the
    neighborhood.  Windows with no activity leave the estimate untouched
    (no decay — silence under PSM usually means no traffic, not no
    neighbors).  Until
    ``ADAPTIVE_DEGREE_WARMUP_WINDOWS`` active windows have been folded the
    conservative Berenbrink-style cold-start value
    ``1/ADAPTIVE_DEGREE_COLD_DEGREE`` is used instead: assume a dense
    unknown neighborhood and overhear seldom.
    """

    name = "degree"

    def __init__(self) -> None:
        self._estimate: Optional[float] = None
        self._active_windows = 0
        self._epochs = 0
        self._window_senders: Set[int] = set()

    @property
    def estimate(self) -> Optional[float]:
        """Current EWMA degree estimate (None before any activity)."""
        return self._estimate

    @property
    def warm(self) -> bool:
        """True once the estimator has folded enough active windows."""
        return (self._estimate is not None
                and self._active_windows >= ADAPTIVE_DEGREE_WARMUP_WINDOWS)

    def __call__(self, announcement: "Announcement") -> float:
        if self.warm:
            assert self._estimate is not None
            return 1.0 / max(1.0, self._estimate)
        return 1.0 / ADAPTIVE_DEGREE_COLD_DEGREE

    def on_announcement_heard(self, sender: int) -> None:
        self._window_senders.add(sender)

    def on_epoch(self, now: float) -> Optional[Dict[str, Any]]:
        self._epochs += 1
        if self._epochs % ADAPTIVE_DEGREE_WINDOW_EPOCHS:
            return None  # mid-window boundary: nothing folds, no trace
        heard = len(self._window_senders)
        if heard:
            self._active_windows += 1
            if self._estimate is None:
                self._estimate = float(heard)
            else:
                self._estimate += (ADAPTIVE_DEGREE_ALPHA
                                   * (heard - self._estimate))
            self._window_senders.clear()
        return {
            "policy": self.name,
            "heard": heard,
            "estimate": self._estimate,
            "warm": self.warm,
        }


class EnergyBudgetPolicy(AdaptivePolicy):
    """P_R = multiplier / n, with an awake-fraction feedback controller.

    Each epoch the controller measures the fraction of the last beacon
    interval the radio spent awake and compares it against
    ``ADAPTIVE_ENERGY_SETPOINT * remaining_battery_fraction`` — a node
    draining its battery lowers its own awake-time target.  Over target:
    multiply the P_R multiplier down; under: up.  Steps are multiplicative
    with a dithered exponent (``ADAPTIVE_ENERGY_STEP ** u``,
    ``u ~ U[0.5, 1.5)`` from the node's ``adaptive:<node>`` stream) and
    the multiplier is clamped to
    ``[ADAPTIVE_ENERGY_M_MIN, ADAPTIVE_ENERGY_M_MAX]``.
    """

    name = "energy"

    def __init__(
        self,
        neighbor_count_fn: Callable[[], int],
        awake_seconds_fn: Callable[[float], float],
        remaining_fraction_fn: Callable[[float], float],
        beacon_interval: float,
        rng: "random.Random",
    ) -> None:
        self._neighbor_count = neighbor_count_fn
        self._awake_seconds = awake_seconds_fn
        self._remaining_fraction = remaining_fraction_fn
        self._interval = beacon_interval
        self._rng = rng
        self.multiplier = 1.0
        self._last_awake: Optional[float] = None
        self._epochs = 0

    def __call__(self, announcement: "Announcement") -> float:
        return self.multiplier / max(1, self._neighbor_count())

    def on_epoch(self, now: float) -> Optional[Dict[str, Any]]:
        awake = self._awake_seconds(now)
        if self._last_awake is None:
            # First boundary: no full interval behind us yet.
            self._last_awake = awake
            return None
        frac = min(max((awake - self._last_awake) / self._interval, 0.0), 1.0)
        self._last_awake = awake
        self._epochs += 1
        target = ADAPTIVE_ENERGY_SETPOINT * self._remaining_fraction(now)
        factor = ADAPTIVE_ENERGY_STEP ** (0.5 + self._rng.random())
        if frac > target:
            self.multiplier = max(ADAPTIVE_ENERGY_M_MIN,
                                  self.multiplier / factor)
        else:
            self.multiplier = min(ADAPTIVE_ENERGY_M_MAX,
                                  self.multiplier * factor)
        return {
            "policy": self.name,
            "awake_frac": frac,
            "target": target,
            "multiplier": self.multiplier,
        }


#: Bandit arm labels, in arm-index order: three multiples of 1/n plus
#: the absolute level 1 (overhear everything).
BANDIT_ARM_LABELS = ("1/2n", "1/n", "2/n", "1")

#: Multipliers over 1/n for arms 0..2; arm 3 is the absolute 1.0.
_BANDIT_MULTIPLIERS = (0.5, 1.0, 2.0)


class EpsilonGreedyBanditPolicy(AdaptivePolicy):
    """Epsilon-greedy bandit over the discrete P_R levels {1/2n, 1/n, 2/n, 1}.

    One arm is in force per beacon interval.  At each boundary the
    finished interval's reward — delivered overhears minus
    ``ADAPTIVE_BANDIT_COST_WEIGHT`` times the awake fraction — updates the
    incumbent arm's running mean, then the next arm is chosen: with
    probability ``ADAPTIVE_BANDIT_EPSILON`` a uniform arm from the
    ``adaptive:<node>`` stream (recorded in ``explore_counts``), otherwise
    the greedy arm (ties to the lowest index).
    """

    name = "bandit"

    def __init__(
        self,
        neighbor_count_fn: Callable[[], int],
        awake_seconds_fn: Callable[[float], float],
        beacon_interval: float,
        rng: "random.Random",
    ) -> None:
        self._neighbor_count = neighbor_count_fn
        self._awake_seconds = awake_seconds_fn
        self._interval = beacon_interval
        self._rng = rng
        self.num_arms = len(BANDIT_ARM_LABELS)
        self.values: List[float] = [0.0] * self.num_arms
        self.pulls: List[int] = [0] * self.num_arms
        #: how often each arm was *selected* at a boundary
        self.arm_counts: List[int] = [0] * self.num_arms
        #: the subset of selections that were uniform exploration draws
        self.explore_counts: List[int] = [0] * self.num_arms
        self.arm = 1  # start at the paper's 1/n
        self._taps = 0
        self._last_awake: Optional[float] = None

    def __call__(self, announcement: "Announcement") -> float:
        if self.arm == 3:
            return 1.0
        return _BANDIT_MULTIPLIERS[self.arm] / max(1, self._neighbor_count())

    def on_overhear_delivered(self) -> None:
        self._taps += 1

    def _greedy_arm(self) -> int:
        return max(range(self.num_arms), key=lambda i: (self.values[i], -i))

    def on_epoch(self, now: float) -> Optional[Dict[str, Any]]:
        awake = self._awake_seconds(now)
        reward: Optional[float] = None
        if self._last_awake is not None:
            frac = min(max((awake - self._last_awake) / self._interval, 0.0),
                       1.0)
            reward = self._taps - ADAPTIVE_BANDIT_COST_WEIGHT * frac
            self.pulls[self.arm] += 1
            self.values[self.arm] += ((reward - self.values[self.arm])
                                      / self.pulls[self.arm])
        self._last_awake = awake
        self._taps = 0
        explored = self._rng.random() < ADAPTIVE_BANDIT_EPSILON
        if explored:
            self.arm = self._rng.randrange(self.num_arms)
            self.explore_counts[self.arm] += 1
        else:
            self.arm = self._greedy_arm()
        self.arm_counts[self.arm] += 1
        return {
            "policy": self.name,
            "arm": self.arm,
            "level": BANDIT_ARM_LABELS[self.arm],
            "explore": explored,
            "reward": reward,
        }


def make_policy(
    name: str,
    *,
    neighbor_count_fn: Callable[[], int],
    awake_seconds_fn: Callable[[float], float],
    remaining_fraction_fn: Callable[[float], float],
    beacon_interval: float,
    rng_factory: Callable[[], "random.Random"],
) -> Optional[AdaptivePolicy]:
    """Build the policy for ``name``; ``None`` for the fixed default.

    ``rng_factory`` is only invoked for policies that consume randomness
    (``energy``, ``bandit``), so a ``degree`` or ``fixed`` run creates no
    ``adaptive:<node>`` stream at all and its RNG ledger is unchanged.
    """
    if name == "fixed":
        return None
    if name == "degree":
        return MeasuredDegreePolicy()
    if name == "energy":
        return EnergyBudgetPolicy(
            neighbor_count_fn, awake_seconds_fn, remaining_fraction_fn,
            beacon_interval, rng_factory(),
        )
    if name == "bandit":
        return EpsilonGreedyBanditPolicy(
            neighbor_count_fn, awake_seconds_fn, beacon_interval,
            rng_factory(),
        )
    raise ConfigurationError(
        f"unknown overhearing policy {name!r}; "
        f"choose one of {OVERHEARING_POLICIES}"
    )


def adaptive_run_summary(
    policy_name: str,
    policies: Sequence[Tuple[int, AdaptivePolicy]],
    true_degree_fn: Callable[[int], int],
) -> Dict[str, Any]:
    """Cross-node end-of-run summary for the RunMetrics ``adaptive`` field.

    ``policies`` is ``(node_id, policy)`` in ascending node id — the
    iteration order is the callers' node list, so the folded floats are
    deterministic.  ``true_degree_fn`` supplies the oracle neighbor count
    used *only here, for error reporting* — the degree policy itself
    never sees it.
    """
    summary: Dict[str, Any] = {"policy": policy_name, "nodes": len(policies)}
    if policy_name == "degree":
        errors: List[float] = []
        estimates: List[float] = []
        warm = 0
        for node_id, policy in policies:
            assert isinstance(policy, MeasuredDegreePolicy)
            if policy.warm and policy.estimate is not None:
                warm += 1
                estimates.append(policy.estimate)
                errors.append(abs(policy.estimate - true_degree_fn(node_id)))
        summary["warm_nodes"] = warm
        summary["mean_estimate"] = (sum(estimates) / len(estimates)
                                    if estimates else None)
        summary["estimator_mae"] = (sum(errors) / len(errors)
                                    if errors else None)
        summary["mean_true_degree"] = (
            sum(true_degree_fn(node_id) for node_id, _ in policies)
            / len(policies) if policies else None)
    elif policy_name == "energy":
        multipliers = []
        for _, policy in policies:
            assert isinstance(policy, EnergyBudgetPolicy)
            multipliers.append(policy.multiplier)
        summary["mean_multiplier"] = (sum(multipliers) / len(multipliers)
                                      if multipliers else None)
    elif policy_name == "bandit":
        arms = [0] * len(BANDIT_ARM_LABELS)
        explores = [0] * len(BANDIT_ARM_LABELS)
        for _, policy in policies:
            assert isinstance(policy, EpsilonGreedyBanditPolicy)
            for i, count in enumerate(policy.arm_counts):
                arms[i] += count
            for i, count in enumerate(policy.explore_counts):
                explores[i] += count
        summary["arm_labels"] = list(BANDIT_ARM_LABELS)
        summary["arm_counts"] = arms
        summary["explore_counts"] = explores
    return summary


__all__ = [
    "ADAPTIVE_POLICIES",
    "AdaptivePolicy",
    "BANDIT_ARM_LABELS",
    "EnergyBudgetPolicy",
    "EpsilonGreedyBanditPolicy",
    "MeasuredDegreePolicy",
    "OVERHEARING_POLICIES",
    "adaptive_run_summary",
    "make_policy",
]
