"""Simulation statistics bookkeeping."""

import pytest

from repro.core.stats import SimulationStatistics, overestimation_percent
from repro.errors import AnalysisError


def test_counters_start_at_zero():
    stats = SimulationStatistics()
    assert stats.events_executed == 0
    assert stats.total_toggles == 0
    assert stats.net_toggles == {}


def test_count_toggle_accumulates():
    stats = SimulationStatistics()
    stats.count_toggle("a")
    stats.count_toggle("a")
    stats.count_toggle("b")
    assert stats.net_toggles == {"a": 2, "b": 1}
    assert stats.total_toggles == 3


def test_reset_clears_everything():
    stats = SimulationStatistics()
    stats.events_executed = 5
    stats.count_toggle("a")
    stats.runtime_seconds = 1.5
    stats.reset()
    assert stats.events_executed == 0
    assert stats.net_toggles == {}
    assert stats.runtime_seconds == 0.0


def test_format_mentions_counters():
    stats = SimulationStatistics()
    stats.events_executed = 42
    stats.events_filtered = 7
    text = stats.format()
    assert "42" in text
    assert "7" in text
    assert "filtered" in text


def test_overestimation_matches_paper_rows():
    # Paper Table 1: 1411 vs 959 -> 47%; 1992 vs 1312 -> 52%.
    assert overestimation_percent(959, 1411) == pytest.approx(47.13, abs=0.1)
    assert overestimation_percent(1312, 1992) == pytest.approx(51.8, abs=0.1)


def test_overestimation_rejects_zero_reference():
    with pytest.raises(AnalysisError):
        overestimation_percent(0, 100)
