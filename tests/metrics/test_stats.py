"""Tests for the statistics helpers."""

import pytest

from repro.metrics.stats import (
    confidence_interval_95,
    mean,
    sample_variance,
    t_critical_95,
)


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert mean([]) == 0.0
    assert mean([5.0]) == 5.0


def test_sample_variance():
    assert sample_variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(4.571428, rel=1e-5)
    assert sample_variance([]) == 0.0
    assert sample_variance([3.0]) == 0.0
    assert sample_variance([5.0, 5.0, 5.0]) == 0.0


def test_confidence_interval():
    assert confidence_interval_95([]) == 0.0
    assert confidence_interval_95([3.0]) == 0.0
    ci = confidence_interval_95([1.0, 2.0, 3.0, 4.0, 5.0])
    # sd = sqrt(2.5); n = 5 -> df = 4 -> t = 2.776 (not the normal 1.96)
    assert ci == pytest.approx(2.776 * (2.5 ** 0.5) / (5 ** 0.5))


def test_confidence_interval_paper_sample_size():
    # The paper's 10 repetitions: df = 9 -> t = 2.262.  The old normal
    # z = 1.96 made the reported half-widths ~13% too narrow.
    values = list(range(10))
    expected = 2.262 * (sample_variance(values) / 10) ** 0.5
    assert confidence_interval_95(values) == pytest.approx(expected)


def test_t_critical_table_values():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(4) == pytest.approx(2.776)
    assert t_critical_95(9) == pytest.approx(2.262)
    assert t_critical_95(30) == pytest.approx(2.042)
    assert t_critical_95(120) == pytest.approx(1.980)


def test_t_critical_interpolation_and_limits():
    # Between anchors: bounded by the bracketing table values.
    assert 2.021 < t_critical_95(35) < 2.042
    assert 2.000 < t_critical_95(50) < 2.021
    # Beyond the table: the normal limit.
    assert t_critical_95(1000) == pytest.approx(1.960)
    # Monotonically non-increasing in df.
    values = [t_critical_95(df) for df in range(1, 200)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        t_critical_95(0)
