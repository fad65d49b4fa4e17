"""Tests for the standard-cell library, Liberty export and the design flow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import (
    DEFAULT_GATE_SET,
    build_cmos_timing_library,
    build_library,
    cell_key,
    characterize_gate,
    cmos_technology,
    cnfet_technology,
    device_for_width,
    write_liberty,
)
from repro.circuit import GateNetlist, analyse_netlist
from repro.errors import (
    FlowError,
    LibraryError,
    MappingError,
    PlacementError,
    ReproError,
    VerilogParseError,
)
from repro.flow import (
    CNFETDesignKit,
    comparator_netlist,
    full_adder_netlist,
    full_adder_verilog,
    mac_slice_netlist,
    map_netlist,
    parse_structural_verilog,
    place_cmos_reference,
    place_scheme1,
    place_scheme2,
    ripple_carry_adder_netlist,
    split_cell_name,
)
from repro.geometry import read_gds_summary
from repro.logic import standard_gate

# A small library is enough for most flow tests and keeps them fast.
SMALL_GATES = ("INV", "NAND2")
SMALL_DRIVES = (1.0, 2.0, 4.0, 9.0)


@pytest.fixture(scope="module")
def small_library():
    return build_library(gate_names=SMALL_GATES, drive_strengths=SMALL_DRIVES)


@pytest.fixture(scope="module")
def small_kit():
    return CNFETDesignKit(gate_set=SMALL_GATES, drive_strengths=SMALL_DRIVES)


class TestCharacterization:
    def test_cnfet_unit_device_matches_calibration(self):
        device = device_for_width(1.0, "n", cnfet_technology())
        assert 5 <= device.num_tubes <= 8

    def test_cmos_unit_device_width(self):
        device = device_for_width(1.0, "n", cmos_technology())
        assert device.width_nm == pytest.approx(200.0)
        pdevice = device_for_width(1.0, "p", cmos_technology())
        assert pdevice.width_nm == pytest.approx(280.0)

    def test_cnfet_cell_is_faster_and_lighter_than_cmos(self):
        gate = standard_gate("NAND2")
        cnfet = characterize_gate(gate, cnfet_technology())
        cmos = characterize_gate(gate, cmos_technology())
        assert cnfet.drive_resistance < cmos.drive_resistance
        assert cnfet.input_capacitance < cmos.input_capacitance

    def test_drive_strength_lowers_resistance(self):
        gate = standard_gate("INV")
        weak = characterize_gate(gate, cnfet_technology(), drive_strength=1.0)
        strong = characterize_gate(gate, cnfet_technology(), drive_strength=4.0)
        assert strong.drive_resistance < weak.drive_resistance
        assert strong.input_capacitance > weak.input_capacitance


class TestLibrary:
    def test_library_contents(self, small_library):
        assert len(small_library) == len(SMALL_GATES) * len(SMALL_DRIVES)
        assert small_library.has_cell("NAND2", 4.0)
        assert small_library.cell("INV", 9.0).drive_strength == 9.0
        assert small_library.gate_types() == ["INV", "NAND2"]
        assert small_library.drive_strengths("INV") == sorted(SMALL_DRIVES)

    def test_cell_key_format(self):
        assert cell_key("nand2", 4.0) == "NAND2_4X"

    def test_missing_cell_raises(self, small_library):
        with pytest.raises(LibraryError):
            small_library.cell("XOR2", 1.0)

    def test_all_library_cells_beat_cmos_area(self, small_library):
        for cell in small_library:
            assert cell.area_gain_vs_cmos > 1.0, cell.name

    def test_timing_library_export(self, small_library):
        timing = small_library.timing_library()
        assert "INV" in timing.cell_types()
        model = timing.lookup("NAND2", 2.0)
        assert model.drive_resistance > 0

    def test_full_default_gate_set_builds(self):
        library = build_library(drive_strengths=(1.0,))
        assert len(library) == len(DEFAULT_GATE_SET)

    def test_cmos_timing_library(self):
        timing = build_cmos_timing_library(gate_names=SMALL_GATES, drive_strengths=(1.0,))
        assert timing.lookup("INV", 1.0).drive_resistance > 0


class TestLiberty:
    def test_liberty_text_structure(self, small_library):
        text = write_liberty(small_library)
        assert text.startswith("library (")
        assert "cell (NAND2_4X)" in text
        assert 'function : "!(A & B)"' in text
        assert text.count("pin (") >= len(small_library) * 2

    def test_empty_library_rejected(self):
        from repro.cells.library import StandardCellLibrary
        from repro.tech import CNFET_RULES

        empty = StandardCellLibrary("empty", 1, cnfet_technology(), 4.0, CNFET_RULES)
        with pytest.raises(LibraryError):
            write_liberty(empty)


class TestVerilog:
    def test_split_cell_name(self):
        assert split_cell_name("NAND2_4X") == ("NAND2", 4.0)
        assert split_cell_name("INV") == ("INV", 1.0)

    def test_round_trip_through_verilog(self):
        text = full_adder_verilog()
        netlist = parse_structural_verilog(text)
        reference = full_adder_netlist()
        assert len(netlist) == len(reference)
        assert set(netlist.inputs) == set(reference.inputs)
        assert set(netlist.outputs) == set(reference.outputs)

    def test_parse_rejects_missing_module(self):
        with pytest.raises(FlowError):
            parse_structural_verilog("wire a, b;")

    def test_parse_rejects_positional_ports(self):
        text = "module m (a, y); input a; output y; INV g1 (a, y); endmodule"
        with pytest.raises(FlowError):
            parse_structural_verilog(text)

    def test_full_adder_netlist_is_valid(self):
        netlist = full_adder_netlist()
        netlist.validate()
        assert set(netlist.outputs) == {"sum", "carry"}
        assert len(netlist) == 13  # 9 NAND2 + two output inverter pairs

    def test_full_adder_logic_is_correct(self):
        netlist = full_adder_netlist(buffer_outputs=False)
        values = {}
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    nets = {"a": bool(a), "b": bool(b), "cin": bool(cin)}
                    for gate in netlist.topological_order():
                        inputs = [nets[n] for n in gate.input_nets()]
                        if gate.cell_type == "NAND2":
                            nets[gate.output_net] = not (inputs[0] and inputs[1])
                        elif gate.cell_type == "INV":
                            nets[gate.output_net] = not inputs[0]
                    total = a + b + cin
                    assert nets["sum"] == bool(total % 2), (a, b, cin)
                    assert nets["carry"] == (total >= 2), (a, b, cin)

    def test_ripple_carry_adder_scales(self):
        netlist = ripple_carry_adder_netlist(bits=4)
        netlist.validate()
        assert len(netlist) == 4 * 9
        assert "sum3" in netlist.outputs


def _simulate(netlist, inputs):
    """Evaluate a NAND2/INV netlist for one boolean input assignment."""
    nets = dict(inputs)
    for gate in netlist.topological_order():
        pins = [nets[n] for n in gate.input_nets()]
        if gate.cell_type == "NAND2":
            nets[gate.output_net] = not (pins[0] and pins[1])
        else:
            nets[gate.output_net] = not pins[0]
    return nets


class TestGeneratorFamilies:
    def test_comparator_logic_is_correct(self):
        netlist = comparator_netlist(bits=2)
        netlist.validate()
        for a in range(4):
            for b in range(4):
                nets = _simulate(netlist, {
                    "a0": bool(a & 1), "a1": bool(a & 2),
                    "b0": bool(b & 1), "b1": bool(b & 2),
                })
                assert nets["eq"] == (a == b), (a, b)

    def test_single_bit_comparator_buffers_its_output(self):
        netlist = comparator_netlist(bits=1)
        netlist.validate()
        for a in (0, 1):
            for b in (0, 1):
                nets = _simulate(netlist, {"a0": bool(a), "b0": bool(b)})
                assert nets["eq"] == (a == b), (a, b)

    def test_mac_slice_logic_is_correct(self):
        """sum = (a & {bits{b}}) + c + cin, checked exhaustively at 2 bits."""
        netlist = mac_slice_netlist(bits=2)
        netlist.validate()
        for a in range(4):
            for b in (0, 1):
                for c in range(4):
                    for cin in (0, 1):
                        nets = _simulate(netlist, {
                            "a0": bool(a & 1), "a1": bool(a & 2),
                            "c0": bool(c & 1), "c1": bool(c & 2),
                            "b": bool(b), "cin": bool(cin),
                        })
                        total = (a if b else 0) + c + cin
                        word = (int(nets["sum0"]) + 2 * int(nets["sum1"])
                                + 4 * int(nets["carry1"]))
                        assert word == total, (a, b, c, cin)

    def test_generators_reject_zero_bits(self):
        for generator in (ripple_carry_adder_netlist, comparator_netlist,
                          mac_slice_netlist):
            with pytest.raises(FlowError):
                generator(0)


class TestVerilogDiagnostics:
    def test_unknown_cell_reports_line_and_column(self):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                "  XOR9_2X g0 (.A(a), .out(y));\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        error = excinfo.value
        assert (error.line, error.column) == (4, 3)
        assert "XOR9" in str(error)
        assert "(line 4, column 3)" in str(error)

    def test_duplicate_instance_names_first_declaration(self):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                "  wire n1;\n"
                "  INV g1 (.A(a), .out(n1));\n"
                "  INV g1 (.A(n1), .out(y));\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        error = excinfo.value
        assert error.line == 6
        assert "first declared on line 5" in str(error)

    def test_undeclared_net_points_at_the_port(self):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                "  INV g1 (.A(a), .out(n1));\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        error = excinfo.value
        assert error.line == 4
        assert error.column > 10  # the .out(n1) token, not the instance
        assert "undeclared net 'n1'" in str(error)
        assert "wire" in str(error)  # the fix is suggested

    def test_comments_do_not_shift_error_locations(self):
        text = ("module m (a, y);  // ports\n"
                "  /* a multi-line\n"
                "     block comment */\n"
                "  input a;\n"
                "  output y;\n"
                "  INV g1 (.A(a), .out(n1));\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        assert excinfo.value.line == 6

    def test_positional_ports_error_is_located(self):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                "  INV g1 (a, y);\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("instance, problem", [
        ("NAND2 u1 (.A(a), .out(y));", "missing pin B"),
        ("INV u1 (.A(a), .B(a), .out(y));", "unknown pin B"),
        ("NAND2 u1 (.A(a), .A(a), .out(y));", "pin A twice"),
    ], ids=["missing", "unknown", "repeated"])
    def test_instance_pins_must_be_the_cell_inputs_plus_out(self, instance,
                                                             problem):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                f"  {instance}\n"
                "endmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_structural_verilog(text)
        assert (excinfo.value.line, excinfo.value.column) == (4, 3), problem
        assert "needs exactly" in str(excinfo.value)

    def test_known_cells_override_and_opt_out(self):
        text = ("module m (a, y);\n"
                "  input a;\n"
                "  output y;\n"
                "  XOR9_2X g0 (.A(a), .out(y));\n"
                "endmodule\n")
        netlist = parse_structural_verilog(text, known_cells=("xor9",))
        assert netlist.gates[0].cell_type == "XOR9"
        netlist = parse_structural_verilog(text, known_cells=False)
        assert netlist.gates[0].cell_type == "XOR9"
        with pytest.raises(VerilogParseError):
            parse_structural_verilog(text, known_cells=("NAND2",))


    #: Fragments a mutation splices in: Verilog tokens and punctuation,
    #: so edits land on the parser's decisions rather than only on names.
    _FRAGMENTS = st.sampled_from([
        "module", "endmodule", "input", "output", "wire", "assign",
        "NAND2", "NAND2_4X", "INV", "XOR9", "g1", "a", "out", ".out(",
        ".a(", "(", ")", ";", ",", ".", "//", "/*", "*/", "\n", " ", "",
        "\\esc ", "1'b0", "[3:0]", "\x00", "\u00e9",
    ])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_full_adder_raises_only_typed_errors(self, data):
        """Splicing deletions and token insertions into the built-in full
        adder either still parses or fails with a ReproError, never with
        another exception."""
        text = full_adder_verilog()
        for _ in range(data.draw(st.integers(1, 4))):
            start = data.draw(st.integers(0, len(text)))
            stop = data.draw(st.integers(start, min(len(text), start + 40)))
            insert = "".join(data.draw(
                st.lists(self._FRAGMENTS | st.text(max_size=3),
                         max_size=4)))
            text = text[:start] + insert + text[stop:]
        try:
            netlist = parse_structural_verilog(text)
        except ReproError:
            return
        assert isinstance(netlist, GateNetlist)


class TestMappingAndPlacement:
    def test_mapping_binds_every_instance(self, small_library):
        design = map_netlist(full_adder_netlist(), small_library)
        assert len(design.gates) == len(design.netlist)
        assert design.total_cell_area() > 0
        assert design.total_cmos_reference_area() > design.total_cell_area()

    def test_mapping_snaps_missing_drive(self, small_library):
        netlist = GateNetlist("odd_drive")
        netlist.add_gate("g1", "INV", {"A": "a", "out": "y"}, drive_strength=3.0)
        netlist.declare_io(["a"], ["y"])
        design = map_netlist(netlist, small_library)
        assert design.gates[0].cell.drive_strength in SMALL_DRIVES
        with pytest.raises(MappingError):
            map_netlist(netlist, small_library, snap_drive_strengths=False)

    def test_mapping_unknown_gate_type(self, small_library):
        netlist = GateNetlist("bad")
        netlist.add_gate("g1", "XOR2", {"A": "a", "B": "b", "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        with pytest.raises(MappingError):
            map_netlist(netlist, small_library)

    def test_mapping_rejects_zero_instance_netlist(self, small_library):
        netlist = GateNetlist("hollow")
        netlist.declare_io(["a"], [])
        with pytest.raises(MappingError, match="no gate instances"):
            map_netlist(netlist, small_library)

    def test_mapping_lists_every_missing_cell_type(self, small_library):
        """One error names every uncovered gate type, not just the first."""
        netlist = GateNetlist("wide")
        netlist.add_gate("g1", "NOR2", {"A": "a", "B": "b", "out": "n1"})
        netlist.add_gate("g2", "AOI21", {"A": "n1", "B": "b", "C": "a",
                                         "out": "y"})
        netlist.declare_io(["a", "b"], ["y"])
        with pytest.raises(MappingError) as excinfo:
            map_netlist(netlist, small_library)
        message = str(excinfo.value)
        assert "NOR2" in message and "AOI21" in message

    def test_placements_have_no_overlaps(self, small_library):
        design = map_netlist(full_adder_netlist(), small_library)
        for placement in (place_scheme1(design), place_scheme2(design)):
            assert placement.overlaps() == []
            assert placement.core_area >= placement.cell_area - 1e-6
            assert 0.3 < placement.utilization <= 1.0

    def test_scheme2_is_denser_than_scheme1(self, small_library):
        design = map_netlist(full_adder_netlist(), small_library)
        s1 = place_scheme1(design)
        s2 = place_scheme2(design)
        # Scheme 2 packs the same cells into a smaller core because short
        # cells no longer pay for the standardised row height.
        assert s2.core_area < s1.core_area

    def test_cmos_reference_placement(self):
        placement = place_cmos_reference(full_adder_netlist())
        assert placement.overlaps() == []
        assert placement.core_area > 0


class TestDesignKit:
    def test_library_is_drc_clean(self, small_kit):
        assert small_kit.run_drc() == {}

    def test_flow_report_gains(self, small_kit):
        result = small_kit.run_flow(full_adder_netlist())
        report = result.report
        assert report.gate_count == 13
        assert report.delay_gain_vs_cmos > 2.0
        assert report.energy_gain_vs_cmos > 1.0
        assert report.area_gain_vs_cmos > 1.0
        assert "area gain" in report.summary()

    def test_flow_accepts_verilog_text(self, small_kit):
        result = small_kit.run_flow(full_adder_verilog())
        assert result.report.gate_count == 13

    def test_flow_rejects_other_inputs(self, small_kit):
        with pytest.raises(FlowError):
            small_kit.run_flow(42)

    def test_gds_output_contains_library_cells(self, small_kit, tmp_path):
        result = small_kit.run_flow(full_adder_netlist())
        path = small_kit.write_gds(result, str(tmp_path / "fa.gds"))
        summary = read_gds_summary(open(path, "rb").read())
        top = [name for name in summary if name.endswith("_top")]
        assert top
        assert summary[top[0]].sref_count == 13
        assert any("NAND2" in name for name in summary)

    def test_liberty_view_available(self, small_kit):
        assert "library (" in small_kit.liberty()

    def test_measured_timing_flow(self):
        """The full adder on a *measured* timing library: the INV/NAND2
        cells are characterised on the batch transient engine, the
        Liberty view records the origin, and the waveform-measured
        critical path agrees with the logical-effort estimate within a
        factor 3."""
        kit = CNFETDesignKit(gate_set=("INV", "NAND2"),
                             drive_strengths=(1.0, 2.0, 4.0),
                             scheme=1, timing_source="measured")
        result = kit.run_flow(full_adder_netlist())
        reference = CNFETDesignKit(gate_set=("INV", "NAND2"),
                                   drive_strengths=(1.0, 2.0, 4.0), scheme=1)
        estimated = analyse_netlist(full_adder_netlist(),
                                    reference.library.timing_library())
        measured_delay = result.report.timing.critical_path_delay
        assert "/* timing_source : measured */" in kit.liberty()
        assert measured_delay > 0
        assert 1 / 3 < measured_delay / estimated.critical_path_delay < 3
        assert result.report.delay_gain_vs_cmos > 1.0
