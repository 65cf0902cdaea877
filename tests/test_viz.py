"""Tests for terminal visualization helpers."""

import numpy as np
import pytest

from repro.analysis.viz import final_share_chart, population_chart, share_bar, sparkline
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from tests.helpers.runs import fast_run


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 8

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_downsampling(self):
        line = sparkline(np.arange(100), width=10)
        assert len(line) == 10

    def test_width_not_exceeded_when_short(self):
        assert len(sparkline([1, 2], width=10)) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sparkline([])
        with pytest.raises(ConfigurationError):
            sparkline([1, 2], width=0)


class TestShareBar:
    def test_full_and_empty(self):
        assert share_bar(1.0, width=4) == "####"
        assert share_bar(0.0, width=4) == "...."

    def test_half(self):
        assert share_bar(0.5, width=4) == "##.."

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            share_bar(1.5)
        with pytest.raises(ConfigurationError):
            share_bar(0.5, width=0)


class TestCharts:
    def test_population_chart_from_real_run(self):
        result = fast_run(
            "simple", 64, NestConfig.all_good(3), seed=0, max_rounds=4000,
            record_history=True,
        )
        chart = population_chart(result.population_history)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n1")
        assert "peak=" in lines[0]

    def test_final_share_chart(self):
        chart = final_share_chart(np.array([10, 20, 0]))
        lines = chart.splitlines()
        assert lines[0].startswith("home")
        assert lines[1].startswith("n1")
        assert lines[1].endswith("20")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            population_chart(None)
        with pytest.raises(ConfigurationError):
            final_share_chart(np.array([5]))
