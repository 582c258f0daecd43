"""Tests for the per-figure experiment modules (micro scale)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    ablation,
    fig5,
    fig9,
    lifetime,
    series,
    table1,
)
from repro.experiments.evaluation import run_experiments
from repro.experiments.scenarios import SMOKE_SCALE


@pytest.fixture(scope="module")
def micro():
    """A very small scale so every figure module runs in seconds."""
    return dataclasses.replace(
        SMOKE_SCALE, num_nodes=16, sim_time=12.0, num_connections=3,
        repetitions=1, rates=(0.5, 1.0), low_rate=0.5, high_rate=1.0,
        name="micro",
    )


def _run(name, scale):
    """One row of the evaluation table, run alone at seed 2."""
    return run_experiments([name], scale, seed=2)[name]


def test_fig5_structure(micro):
    result = _run("fig5", micro)
    assert set(result.panels) == {
        (0.5, True), (1.0, True), (0.5, False), (1.0, False),
    }
    for curves in result.panels.values():
        assert set(curves) == {"ieee80211", "odpm", "rcast"}
        for curve in curves.values():
            assert curve.shape == (16,)
            assert np.all(np.diff(curve) >= -1e-9)  # sorted ascending
    text = fig5.format_result(result)
    assert "Fig.5" in text and "static" in text and "mobile" in text


def test_fig6_structure(micro):
    result = _run("fig6", micro)
    for mobile in (True, False):
        variance = result.data[mobile]["variance"]
        assert set(variance) == {"ieee80211", "odpm", "rcast"}
        for values in variance.values():
            assert len(values) == 2
            assert all(v >= 0 for v in values)
    text = series.format_result(result)
    assert "variance" in text and "rcast vs odpm [%]" in text
    exported = series.to_json(result)
    assert set(exported["variance"]) == {"True", "False"}
    assert len(series.verdicts(result)) == 4


def test_fig7_structure(micro):
    result = _run("fig7", micro)
    for mobile in (True, False):
        for metric in ("total_energy", "pdr", "energy_per_bit"):
            for scheme in ("ieee80211", "odpm", "rcast"):
                assert len(result.data[mobile][metric][scheme]) == 2
    assert len(result.gap_vs("odpm", False)) == 2
    assert "Rcast energy advantage" in series.format_result(result)
    assert set(series.to_json(result)) == {"figure", "scale_name", "rates",
                                           "data"}


def test_fig8_structure(micro):
    result = _run("fig8", micro)
    for mobile in (True, False):
        for metric in ("avg_delay", "overhead"):
            assert set(result.data[mobile][metric]) == {
                "ieee80211", "odpm", "rcast",
            }
    assert "delay" in series.format_result(result)


def test_fig9_structure(micro):
    result = _run("fig9", micro)
    assert len(result.panels) == 6  # 3 schemes x 2 rates
    panel = result.panels[("rcast", 1.0)]
    assert panel.roles.shape == (16,)
    assert panel.energy.shape == (16,)
    assert len(panel.scatter_points()) == 16
    assert panel.max_role >= panel.mean_role
    assert "role" in fig9.format_result(result)
    assert [v.name for v in fig9.verdicts(result)] == [
        "80211_flat", "energy_balance", "role_spread", "scatter_complete"]


def test_table1_structure(micro):
    result = _run("table1", micro)
    assert set(result.rows) == set(table1.SCHEMES)
    verdicts = table1.verdicts(result)
    assert len(verdicts) == 8
    assert "Table 1" in table1.format_result(result)
    assert table1.to_json(result)["checks"] == [
        [v.claim, v.passed] for v in verdicts]


def test_ablation_factors_structure(micro):
    result = _run("ablation-factors", micro)
    assert "neighbors-only" in result.variants
    assert "sender+mobility+battery" in result.variants
    assert len(result.variants) == len(ablation.FACTOR_SETS)
    assert "decision-factors" in ablation.format_result(result)


def test_ablation_tap_structure(micro):
    result = _run("ablation-tap", micro)
    assert set(result.variants) == {"tap-on", "tap-off"}


def test_ablation_rreq_structure(micro):
    result = _run("ablation-rreq", micro)
    assert set(result.variants) == {"rreq-all", "rreq-randomized"}


def test_aodv_study_structure(micro):
    from repro.experiments import aodv_study

    result = _run("aodv", micro)
    assert set(result.cells) == {
        ("dsr", "psm"), ("dsr", "rcast"),
        ("aodv", "psm"), ("aodv", "rcast"),
    }
    for key in result.cells:
        assert 0.0 <= result.rreq_share_of(*key) <= 1.0
    assert "Footnote 1" in aodv_study.format_result(result)


def test_sensitivity_structure(micro):
    from repro.experiments import sensitivity

    result = _run("sensitivity", micro)
    assert set(result.by_beacon) == set(sensitivity.BEACON_INTERVALS)
    assert set(result.by_fraction) == set(sensitivity.ATIM_FRACTIONS)
    text = sensitivity.format_result(result)
    assert "beacon interval" in text and "ATIM" in text


def test_staleness_study_structure(micro):
    from repro.experiments import staleness_study

    result = _run("staleness", micro)
    assert set(result.reports) == set(staleness_study.SCHEMES)
    for report in result.reports.values():
        assert report.total_entries >= report.stale_entries >= 0
    assert "Stale-route" in staleness_study.format_result(result)


def test_sync_study_structure(micro):
    from repro.experiments import sync_study

    result = _run("sync", micro)
    assert set(result.cells) == set(sync_study.JITTERS)
    assert "clock" in sync_study.format_result(result).lower()


def test_span_study_structure(micro):
    from repro.experiments import span_study

    result = _run("span", micro)
    for factor in span_study.DENSITY_FACTORS:
        assert factor in result.backbone
        for scheme in span_study.SCHEMES:
            assert (scheme, factor) in result.cells
    assert "SPAN" in span_study.format_result(result)


def test_lifetime_structure(micro):
    result = _run("lifetime", micro)
    assert set(result.summaries) == {"ieee80211", "odpm", "rcast"}
    for summary in result.summaries.values():
        assert summary.first_death > 0
        assert 0.0 <= summary.alive_at_end <= 1.0
    assert "lifetime" in lifetime.format_result(result).lower()
