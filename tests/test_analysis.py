"""Tests for the reporting/plotting helpers and overhead roll-up."""

import numpy as np
import pytest

from repro.analysis import Series, ascii_bars, ascii_scatter, format_kv, format_table
from repro.overhead import (
    SequentialCosts,
    estimate_overhead,
    stage_inventory,
    synts_additions_for,
)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_format_kv(self):
        text = format_kv({"alpha": 1, "beta gamma": 2.5})
        assert "alpha" in text and "2.5" in text

    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("x", (1.0, 2.0), (1.0,))


class TestPlots:
    def test_scatter_contains_markers_and_legend(self):
        s1 = Series("one", (0.0, 1.0), (0.0, 1.0))
        s2 = Series("two", (0.0, 1.0), (1.0, 0.0))
        text = ascii_scatter([s1, s2])
        assert "o" in text and "x" in text
        assert "legend" in text and "one" in text

    def test_scatter_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_scatter([])

    def test_bars(self):
        text = ascii_bars(["a", "b"], {"s1": [1.0, 0.5], "s2": [0.2, 0.9]})
        assert "a:" in text and "#" in text

    def test_bars_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], {"s1": [1.0, 2.0]})


class TestOverheadRollup:
    def test_stage_inventories(self):
        inv = stage_inventory("decode")
        assert inv.n_protected_flops <= inv.n_capture_flops
        assert inv.combinational_area > 0

    def test_deeper_speculation_protects_more_flops(self):
        shallow = stage_inventory("simple_alu", r_min=0.9)
        deep = stage_inventory("simple_alu", r_min=0.5)
        assert deep.n_protected_flops >= shallow.n_protected_flops

    def test_additions_positive_costs(self):
        seq = SequentialCosts()
        stages = [stage_inventory(n) for n in ("decode", "simple_alu")]
        adds = synts_additions_for(stages)
        assert adds.area(seq) > 0 and adds.energy(seq) > 0

    def test_estimate_bands(self):
        report = estimate_overhead()
        assert 0.0 < report.area_overhead < 0.10
        assert 0.0 < report.power_overhead < 0.10

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            estimate_overhead(stage_core_fraction=0.0)

    def test_overhead_scales_with_fraction(self):
        quarter = estimate_overhead(stage_core_fraction=0.25)
        half = estimate_overhead(stage_core_fraction=0.5)
        assert half.area_overhead == pytest.approx(2 * quarter.area_overhead)
