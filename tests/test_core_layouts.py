"""Tests for repro.core: sizing, compact/baseline/vulnerable layouts, area."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    assemble_cell,
    area_saving,
    baseline_network_layout,
    cmos_cell_area,
    compact_network_layout,
    get_annotations,
    inverter_area_gain,
    leaf_width_factors,
    plan_compact_network,
    series_depth,
    size_gate,
    table1,
    vulnerable_network_layout,
)
from repro.core.compact import compact_network_height
from repro.errors import LayoutGenerationError, NetworkError
from repro.logic import aoi21, aoi31, nand, nor, standard_gate
from repro.paper import anchor, table1_saving
from repro.tech import CNFET_RULES


class TestSizing:
    def test_nand3_stack_sizing(self):
        gate = nand(3)
        sizing = size_gate(gate, unit_width=4.0)
        # Paper: "n-CNFETs are three times bigger than the p-CNFETs".
        assert all(w == pytest.approx(12.0) for w in sizing.pdn_widths.values())
        assert all(w == pytest.approx(4.0) for w in sizing.pun_widths.values())

    def test_aoi21_mixed_widths(self):
        gate = aoi21()
        sizing = size_gate(gate, unit_width=4.0)
        pdn = sorted(sizing.pdn_widths.values())
        assert pdn == [4.0, 8.0, 8.0]
        assert sorted(set(sizing.pun_widths.values())) == [8.0]

    def test_aoi31_width_factors(self):
        gate = aoi31()
        factors = leaf_width_factors(gate.pdn_tree)
        assert sorted(factors) == [1.0, 3.0, 3.0, 3.0]
        assert series_depth(gate.pun_tree) == 2

    def test_drive_strength_scales_everything(self):
        gate = nand(2)
        base = size_gate(gate, 4.0, drive_strength=1.0)
        strong = size_gate(gate, 4.0, drive_strength=4.0)
        assert strong.total_device_width() == pytest.approx(4 * base.total_device_width())

    def test_invalid_inputs(self):
        with pytest.raises(NetworkError):
            size_gate(nand(2), unit_width=-1.0)
        with pytest.raises(NetworkError):
            size_gate(nand(2), unit_width=4.0, drive_strength=0.0)

    @given(st.integers(min_value=2, max_value=5), st.floats(min_value=3.0, max_value=10.0))
    def test_nand_sizing_property(self, fanin, unit):
        sizing = size_gate(nand(fanin), unit_width=unit)
        assert sizing.max_pdn_width == pytest.approx(fanin * unit)
        assert sizing.max_pun_width == pytest.approx(unit)


class TestCompactLayouts:
    def test_nand3_pun_counts(self):
        gate = nand(3)
        layout = compact_network_layout(gate.pun, gate.pun_tree, unit_width=4.0)
        assert layout.gate_count == 3
        assert layout.contact_count == 4        # Vdd, Out, Vdd, Out
        assert layout.etch_count == 0           # the whole point of the technique
        assert layout.width == pytest.approx(4.0)

    def test_nand3_pdn_has_no_internal_contacts(self):
        gate = nand(3)
        layout = compact_network_layout(gate.pdn, gate.pdn_tree, unit_width=4.0)
        assert layout.contact_count == 2
        assert layout.gate_count == 3

    def test_plan_reports_redundant_contacts(self):
        gate = nand(3)
        plan = plan_compact_network(gate.pun, gate.pun_tree, 4.0)
        assert plan.redundant_contacts == 2
        assert plan.omitted_junctions == 0

    def test_series_junctions_are_omitted(self):
        gate = nand(3)
        plan = plan_compact_network(gate.pdn, gate.pdn_tree, 4.0)
        assert plan.omitted_junctions == 2

    def test_column_height_matches_rule_model(self):
        gate = nand(3)
        layout = compact_network_layout(gate.pun, gate.pun_tree, 4.0)
        expected = CNFET_RULES.linear_chain_length(4, 3)
        assert layout.height == pytest.approx(expected)
        assert compact_network_height(gate.pun, gate.pun_tree, 4.0) == pytest.approx(expected)

    def test_annotations_cover_all_devices(self):
        gate = aoi31()
        layout = compact_network_layout(gate.pdn, gate.pdn_tree, 4.0)
        annotations = get_annotations(layout.cell)
        assert len(annotations.gates) == 4
        assert {g.signal for g in annotations.gates} == {"A", "B", "C", "D"}
        assert len(annotations.actives) == 1
        assert not annotations.requires_vertical_gating

    def test_minimum_width_enforced(self):
        gate = nand(2)
        layout = compact_network_layout(gate.pun, gate.pun_tree, unit_width=1.0)
        assert layout.width == pytest.approx(CNFET_RULES.min_transistor_width)


class TestGridLayouts:
    def test_baseline_nand3_pun_has_two_etched_regions(self):
        layout = baseline_network_layout(nand(3), "pun", unit_width=4.0)
        assert layout.etch_count == 2
        assert layout.gate_count == 3
        annotations = get_annotations(layout.cell)
        # Fan-in 3 parallel group: the middle gate needs vertical gating.
        assert annotations.requires_vertical_gating

    def test_baseline_nand2_does_not_need_vertical_gating(self):
        layout = baseline_network_layout(nand(2), "pun", unit_width=4.0)
        annotations = get_annotations(layout.cell)
        assert not annotations.requires_vertical_gating
        assert layout.etch_count == 1

    def test_vulnerable_has_no_etch(self):
        layout = vulnerable_network_layout(nand(2), "pun", unit_width=4.0)
        assert layout.etch_count == 0

    def test_baseline_wider_than_compact_for_parallel_networks(self):
        gate = nand(3)
        baseline = baseline_network_layout(gate, "pun", unit_width=4.0)
        compact = compact_network_layout(gate.pun, gate.pun_tree, unit_width=4.0)
        assert baseline.width > compact.width
        assert baseline.bbox_area > compact.bbox_area

    def test_pdn_of_nand_matches_between_techniques(self):
        # The paper: "the PDN are similar" for NAND cells.
        gate = nand(3)
        baseline = baseline_network_layout(gate, "pdn", unit_width=4.0)
        compact = compact_network_layout(gate.pdn, gate.pdn_tree, unit_width=4.0)
        assert baseline.bbox_area == pytest.approx(compact.bbox_area)

    def test_invalid_network_selector(self):
        with pytest.raises(LayoutGenerationError):
            baseline_network_layout(nand(2), "pux")


class TestStandardCellAssembly:
    def test_scheme1_height_includes_separation(self):
        cell = assemble_cell(standard_gate("INV"), scheme=1, unit_width=4.0)
        assert cell.height == pytest.approx(4.0 + 4.0 + CNFET_RULES.pun_pdn_separation)

    def test_scheme2_is_shorter_than_scheme1(self):
        gate = standard_gate("NAND2")
        s1 = assemble_cell(gate, scheme=1)
        s2 = assemble_cell(standard_gate("NAND2"), scheme=2)
        assert s2.height < s1.height

    def test_cell_has_pins_and_boundary(self):
        cell = assemble_cell(standard_gate("NAND3"), scheme=1)
        pin_names = {pin.name for pin in cell.cell.pins}
        assert {"A", "B", "C", "out"} <= pin_names
        assert cell.cell.boundary().area == pytest.approx(cell.area)

    def test_annotations_merged_from_both_networks(self):
        cell = assemble_cell(standard_gate("NAND2"), scheme=2)
        annotations = cell.annotations()
        assert len(annotations.gates) == 4
        dopings = {a.doping for a in annotations.actives}
        assert dopings == {"n", "p"}

    def test_unknown_scheme_and_technique(self):
        with pytest.raises(LayoutGenerationError):
            assemble_cell(standard_gate("INV"), scheme=3)
        with pytest.raises(LayoutGenerationError):
            assemble_cell(standard_gate("INV"), technique="magic")

    def test_drive_strength_scales_cell_height(self):
        small = assemble_cell(standard_gate("INV"), drive_strength=1.0)
        large = assemble_cell(standard_gate("INV"), drive_strength=4.0)
        assert large.height > small.height
        assert large.width == pytest.approx(small.width)


class TestAreaModels:
    def test_inverter_area_gain_matches_paper(self):
        gain = inverter_area_gain(unit_width=4.0, scheme=1)
        assert anchor("fig7.inverter_area_gain").holds(gain.gain)

    def test_cmos_cell_area_formula(self):
        area = cmos_cell_area(standard_gate("INV"), unit_width=4.0)
        assert area.height == pytest.approx(4.0 + 10.0 + 5.6)
        assert area.nmos_width == pytest.approx(4.0)
        assert area.pmos_width == pytest.approx(5.6)

    def test_table1_inverter_rows_are_zero(self):
        rows = table1(cells=("INV",))
        for row in rows:
            assert row.measured_saving == pytest.approx(0.0, abs=1e-9)

    def test_table1_orderings_match_paper(self):
        rows = {(r.cell, r.unit_width): r.measured_saving for r in table1()}
        # Savings shrink with transistor width for every multi-input cell.
        for cell in ("NAND2", "NAND3", "AOI22", "AOI21"):
            savings = [rows[(cell, w)] for w in (3.0, 4.0, 6.0, 10.0)]
            assert savings == sorted(savings, reverse=True)
        # AOI cells benefit more than NAND cells, NAND3 more than NAND2.
        for width in (3.0, 4.0, 6.0, 10.0):
            assert rows[("AOI21", width)] > rows[("AOI22", width)]
            assert rows[("AOI22", width)] > rows[("NAND2", width)]
            assert rows[("NAND3", width)] > rows[("NAND2", width)]

    def test_area_saving_positive_for_every_multi_input_cell(self):
        for name in ("NAND2", "NAND3", "NOR2", "NOR3", "AOI21", "AOI22", "OAI21", "OAI22"):
            row = area_saving(standard_gate(name), 4.0)
            assert row.measured_saving > 0.05, name

    def test_paper_table_recorded_completely(self):
        for row in table1():
            assert row.paper_saving == table1_saving(row.cell, row.unit_width)
            assert row.paper_saving is not None, (row.cell, row.unit_width)
        assert table1_saving("NOR2", 4.0) is None
        assert table1_saving("NAND2", 5.0) is None

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["NAND2", "NAND3", "NOR2", "AOI21", "AOI22"]),
           st.floats(min_value=3.0, max_value=12.0))
    def test_compact_never_larger_than_baseline(self, name, width):
        row = area_saving(standard_gate(name), width)
        assert row.compact_area <= row.baseline_area + 1e-9
