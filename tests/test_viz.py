"""Unit tests for repro.analysis.viz (terminal plots)."""

import pytest

from repro.analysis.viz import sparkline, timeseries


class TestSparkline:
    def test_shape_follows_data(self):
        assert sparkline([1, 2, 3, 4, 3, 2, 1]) == "▁▃▆█▆▃▁"

    def test_constant_series_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_width_resampling(self):
        line = sparkline(range(100), width=10)
        assert len(line) == 10
        # Monotone data stays monotone after resampling.
        assert line == "".join(sorted(line))

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=10)) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            sparkline([])
        with pytest.raises(ValueError, match="non-finite"):
            sparkline([1.0, float("nan")])
        with pytest.raises(ValueError, match="width"):
            sparkline([1.0], width=0)


class TestTimeseries:
    def test_dimensions(self):
        text = timeseries([1, 5, 2, 8, 3], width=5, height=4)
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in lines)

    def test_extremes_labelled(self):
        text = timeseries([0.0, 10.0], width=2, height=3)
        assert "10" in text.splitlines()[0]
        assert "0" in text.splitlines()[-1]

    def test_one_star_per_column(self):
        text = timeseries([1, 2, 3, 4], width=4, height=5)
        columns = zip(*(line.split("|", 1)[1] for line in text.splitlines()))
        assert all("".join(col).count("*") == 1 for col in columns)

    def test_validation(self):
        with pytest.raises(ValueError):
            timeseries([1.0], width=1, height=5)
