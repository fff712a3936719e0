"""Unit tests for experiment output formatting."""

import pytest

from repro.experiments.formatting import format_grid, format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "1" in lines[3] and "2.50" in lines[3]

    def test_saturated_marker(self):
        text = format_table(["x"], [[None], [float("inf")]])
        assert text.count("sat.") == 2

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_precision_scaling(self):
        text = format_table(["v"], [[123.456], [12.3456], [0.12345]])
        assert "123" in text
        assert "12.35" in text
        assert "0.123" in text


class TestFormatGrid:
    def test_grid_shape(self):
        text = format_grid([["a", "b"], ["c", "d"]], cell_width=5, title="G")
        lines = text.splitlines()
        assert lines[0] == "G"
        assert len(lines) == 3
        assert "|" in lines[1]
