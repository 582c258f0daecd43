"""Statistical conformance of the overhearing policies (seeded, exact).

Three families of checks, all on the shared scenario from ``conftest``:

* **Clopper-Pearson P_R conformance** — every RANDOMIZED overhear
  decision is traced with the probability the decider declared for that
  draw.  Bucketing decisions by declared value and demanding the
  declared P_R sit inside the exact binomial CI of the bucket's
  empirical election rate verifies the implementation draws at the rate
  it claims — for the fixed 1/n policy and for all three adaptive ones,
  whose P_R moves mid-run.
* **Bandit exploration uniformity** — epsilon-greedy exploration must
  pick arms uniformly; a Pearson chi-square against the uniform
  distribution over the summed per-node exploration histogram checks it,
  and the overall exploration frequency must cover epsilon.
* **Degree-estimator error bounds** — the measured-degree estimator only
  sees *traffic-active* neighbours (idle nodes never announce), so it is
  a lower bound on oracle degree; the tests pin that one-sidedness and a
  calibrated accuracy floor under static and mobile topologies.

Everything is driven by ``CONFORMANCE_SEED``: deterministic, no retry
loops, no "within 3 sigma most of the time" tolerances.  The CP alpha is
1e-4 per bucket, small enough that the fixed seed sits comfortably
inside every interval while still rejecting a policy that draws at even
a modestly wrong rate.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import ADAPTIVE_POLICIES, OVERHEARING_POLICIES
from repro.metrics.stats import (
    chi_square_critical,
    chi_square_uniform_stat,
    clopper_pearson,
)
from tests.statistics.conftest import conformance_run, decision_buckets

#: Two-sided significance per bucket.  Not Bonferroni-divided further:
#: the runs are seeded, so this is a calibration margin, not a false
#: positive rate over repeated sampling.
CP_ALPHA = 1e-4

#: Buckets smaller than this carry too little evidence either way.
MIN_BUCKET = 50


@pytest.mark.parametrize("policy", OVERHEARING_POLICIES)
class TestClopperPearsonConformance:
    def test_declared_probability_within_exact_ci(self, policy):
        trace, _, _ = conformance_run(policy)
        buckets = decision_buckets(trace)
        tested = 0
        for declared_p, decisions in sorted(buckets.items()):
            n = len(decisions)
            if n < MIN_BUCKET:
                continue
            k = sum(decisions)
            lo, hi = clopper_pearson(k, n, alpha=CP_ALPHA)
            assert lo <= declared_p <= hi, (
                f"{policy}: declared P_R={declared_p:.4f} outside "
                f"CP[{lo:.4f}, {hi:.4f}] (k={k}, n={n})")
            tested += 1
        # The scenario must actually produce evidence, or the loop above
        # would vacuously pass.
        assert tested >= 1, f"{policy}: no bucket reached n={MIN_BUCKET}"

    def test_trace_agrees_with_metrics_counters(self, policy):
        # The decider's decision/election counters surfaced in RunMetrics
        # must equal what the trace recorded: same seam, two witnesses.
        trace, metrics, _ = conformance_run(policy)
        buckets = decision_buckets(trace)
        decisions = sum(len(v) for v in buckets.values())
        elections = sum(sum(v) for v in buckets.values())
        assert metrics.overhear_decisions == decisions
        assert metrics.overhear_elections == elections
        if decisions:
            assert metrics.empirical_overhear_rate == pytest.approx(
                elections / decisions)

    def test_scenario_exercises_the_policy(self, policy):
        # Enough volume for the CP machinery to mean something.
        _, metrics, _ = conformance_run(policy)
        assert metrics.overhear_decisions > 1000


class TestBanditExploration:
    def test_exploration_uniform_over_arms(self):
        _, metrics, _ = conformance_run("bandit")
        assert metrics.adaptive is not None
        explore = metrics.adaptive["explore_counts"]
        assert len(explore) == 4
        stat = chi_square_uniform_stat(explore)
        assert stat < chi_square_critical(3, alpha=0.001), (
            f"exploration histogram {explore} not uniform: "
            f"chi2={stat:.2f}")

    def test_exploration_rate_covers_epsilon(self):
        # Explorations are Binomial(selections, epsilon=0.1); the CP
        # interval of the observed rate must cover epsilon.
        _, metrics, _ = conformance_run("bandit")
        assert metrics.adaptive is not None
        selections = sum(metrics.adaptive["arm_counts"])
        explorations = sum(metrics.adaptive["explore_counts"])
        lo, hi = clopper_pearson(explorations, selections, alpha=0.001)
        assert lo <= 0.1 <= hi, (
            f"exploration rate {explorations}/{selections} CI "
            f"[{lo:.4f}, {hi:.4f}] does not cover epsilon=0.1")

    def test_every_arm_visited(self):
        _, metrics, _ = conformance_run("bandit")
        assert metrics.adaptive is not None
        assert all(c > 0 for c in metrics.adaptive["arm_counts"])


@pytest.mark.parametrize("mobility", ["static", "waypoint"])
class TestDegreeEstimatorError:
    # The estimator observes announcing (traffic-active) neighbours only,
    # so per-node estimates must not materially exceed oracle degree; the
    # slack absorbs EWMA lag as neighbourhoods churn under mobility.
    SLACK = {"static": 4.0, "waypoint": 6.0}

    def test_estimates_lower_bound_oracle_degree(self, mobility):
        _, _, network = conformance_run("degree", mobility)
        checked = 0
        for node in network.nodes:
            policy = node.rcast.adaptive
            if not policy.warm:
                continue
            true_degree = network.positions.neighbor_count(node.node_id)
            assert policy.estimate <= true_degree + self.SLACK[mobility], (
                f"node {node.node_id}: estimate {policy.estimate:.2f} "
                f"exceeds oracle degree {true_degree} + slack")
            checked += 1
        assert checked >= 20  # nearly all of the 30 nodes warmed up

    def test_aggregate_error_beats_trivial_estimator(self, mobility):
        # MAE below the mean true degree means the estimator carries
        # real signal: guessing zero everywhere would score exactly
        # mean_true_degree.
        _, metrics, _ = conformance_run("degree", mobility)
        assert metrics.adaptive is not None
        summary = metrics.adaptive
        assert summary["policy"] == "degree"
        assert summary["warm_nodes"] >= 24
        assert summary["estimator_mae"] < summary["mean_true_degree"]
        assert summary["mean_estimate"] >= 2.0


@pytest.mark.parametrize("policy", ADAPTIVE_POLICIES)
def test_adaptive_policies_report_summary(policy):
    _, metrics, _ = conformance_run(policy)
    assert metrics.adaptive is not None
    assert metrics.adaptive["policy"] == policy
    payload = metrics.to_dict()
    assert payload["adaptive"]["policy"] == policy
    assert payload["overhear_decisions"] == metrics.overhear_decisions


def test_fixed_policy_reports_no_adaptive_block():
    _, metrics, _ = conformance_run("fixed")
    assert metrics.adaptive is None
    assert "adaptive" not in metrics.to_dict()
    assert "overhear_decisions" not in metrics.to_dict()
