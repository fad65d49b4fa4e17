"""Regressions for the batch transient engine and the characterisation
sweep: the bit-identity contract against the scalar reference loop, measurement parity under
back-drive, the vectorized PWL evaluator, and the sweep grid."""

import numpy as np
import pytest

from repro.cells import (
    MEASURED_LOADS_F,
    MEASURED_SLEW_S,
    characterize_sweep,
    cnfet_technology,
    gate_transistor_netlist,
    measured_timing_models,
    sensitizing_assignment,
)
from repro.cells.characterize import _measure_case, _plan_cell_cases
from repro.circuit import (
    CompiledTransientBatch,
    PiecewiseLinearSource,
    SimulationCase,
    TransientSimulator,
    build_inverter_chain,
    cmos_inverter,
    cnfet_inverter,
    constant_source,
    pulse_source,
    run_transient_batch,
    simulate_inverter_chain_batch,
    step_source,
)
from repro.circuit.netlist import VDD, TransistorNetlist
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters
from repro.errors import SimulationError
from repro.logic import standard_gate

STOP = 20e-12
STEP = 0.5e-12


def _cnfet_chain_case(tubes=6, vdd=1.0, stages=3):
    inverter = cnfet_inverter(tubes, FO4_GATE_WIDTH_NM,
                              parameters=calibrated_cnfet_parameters())
    netlist = build_inverter_chain(inverter, stages=stages, fanout=4, vdd=vdd)
    initial = {f"n{i + 1}": vdd if i % 2 == 0 else 0.0 for i in range(stages)}
    source = pulse_source(vdd, delay=3e-12, rise_time=1e-12, width=8e-12)
    return SimulationCase(netlist, {"in": source}, initial)


def _loop(case, stop=STOP, step=STEP):
    return TransientSimulator(case.netlist, case.sources,
                              case.initial_conditions).run_reference(stop,
                                                                     step)


def _assert_identical(loop, batch):
    """Equal waveforms down to the byte: ``np.array_equal`` alone treats
    -0.0 and 0.0 as equal, so the raw bytes are compared too."""
    assert set(loop.waveforms) == set(batch.waveforms)
    for net in loop.waveforms:
        assert np.array_equal(loop.waveforms[net], batch.waveforms[net]), net
        assert loop.waveforms[net].tobytes() == batch.waveforms[net].tobytes(), net
    assert loop.supply_charge == batch.supply_charge
    assert loop.vdd == batch.vdd


class TestBitIdentity:
    def test_inverter_chain_batch_matches_loop(self):
        """CNFET chain corners: every waveform sample of every corner is
        byte-identical across the engines."""
        cases = [_cnfet_chain_case(tubes) for tubes in (1, 4, 6, 12)]
        batch = run_transient_batch(cases, STOP, STEP)
        for case, result in zip(cases, batch):
            _assert_identical(_loop(case), result)

    def test_mixed_technology_batch(self):
        """A CMOS corner rides in the same batch as CNFET corners."""
        cnfet = _cnfet_chain_case(6)
        cmos_net = build_inverter_chain(cmos_inverter(), stages=3, fanout=4,
                                        vdd=1.0)
        cmos = SimulationCase(cmos_net, cnfet.sources,
                              cnfet.initial_conditions)
        batch = run_transient_batch([cnfet, cmos], STOP, STEP)
        _assert_identical(_loop(cnfet), batch[0])
        _assert_identical(_loop(cmos), batch[1])

    def test_nand3_gate_netlist_matches_loop(self):
        """The NAND3 cell netlist (stacked PDN with internal nodes,
        parallel PUN): batch == loop bit for bit."""
        gate = standard_gate("NAND3")
        tech = cnfet_technology()
        netlist = gate_transistor_netlist(gate, tech, drive_strength=2.0,
                                          load_capacitance=2e-15)
        sides = sensitizing_assignment(gate, gate.inputs[0])
        sources = {gate.inputs[0]: pulse_source(1.0, 3e-12, 2e-12, 8e-12)}
        for pin, value in sides.items():
            sources[pin] = constant_source(1.0 if value else 0.0)
        case = SimulationCase(netlist, sources, {"out": 1.0})
        batch = run_transient_batch([case], STOP, STEP)[0]
        _assert_identical(_loop(case), batch)

    def test_nand3_corner_grid_matches_loop(self):
        """A 12-corner NAND3 grid with per-case drive, load and supply:
        the output net takes 4 contributions (rank 4) and the supply 3
        p-type terms.  Side inputs sit at mid-rail, so every device
        conducts and all of those terms are nonzero, and the output
        starts above the rail, so the p-type devices back-drive the
        supply.  Batch == loop byte for byte on every corner."""
        gate = standard_gate("NAND3")
        pin = gate.inputs[0]
        cases = []
        for drive in (1.0, 2.0):
            for load in (1e-15, 4e-15):
                for vdd in (1.0, 0.9, 0.8):
                    netlist = gate_transistor_netlist(
                        gate, cnfet_technology(vdd=vdd), drive_strength=drive,
                        load_capacitance=load)
                    sources = {pin: pulse_source(vdd, 3e-12, 2e-12, 8e-12)}
                    for side in gate.inputs[1:]:
                        sources[side] = constant_source(0.5 * vdd)
                    cases.append(SimulationCase(netlist, sources,
                                                {"out": 1.05 * vdd}))
        batch = run_transient_batch(cases, STOP, STEP)
        assert len(batch) == 12
        for case, result in zip(cases, batch):
            assert result.voltage("out")[0] > result.vdd      # back-drive
            _assert_identical(_loop(case), result)

    @pytest.mark.parametrize("gate, grids", [
        # The circuit study's NAND2 2X and 4X timing batches (full time
        # base, both measured loads).
        ("NAND2", [((2.0,), MEASURED_LOADS_F, (MEASURED_SLEW_S,)),
                   ((4.0,), MEASURED_LOADS_F, (MEASURED_SLEW_S,))]),
        # The Figure 3 NAND3 stimulus.
        ("NAND3", [((1.0, 2.0), (2e-15,), (5e-12,))]),
        # The Figure 4 AOI31: series/parallel PUN and PDN with internal
        # nodes.
        ("AOI31", [((1.0,), (1e-15, 4e-15), (5e-12,))]),
    ], ids=["NAND2", "NAND3", "AOI31"])
    def test_planned_grid_matches_loop(self, gate, grids):
        """Characterisation grids planned exactly as ``characterize_sweep``
        plans them: batch == loop byte for byte, and the measured delays
        are physical (positive, under 100 ps, rising with load)."""
        for drives, loads, slews in grids:
            _, pin, labels, cases, stop, step = _plan_cell_cases(
                gate, drives, loads, slews, {"nominal": cnfet_technology()},
                4.0, None)
            batch = run_transient_batch(cases, stop, step)
            delays = {}
            for (drive, load, *_), case, result in zip(labels, cases, batch):
                _assert_identical(_loop(case, stop=stop, step=step), result)
                rise, fall, _ = _measure_case(result, pin, result.vdd)
                assert 0 < rise < 100e-12 and 0 < fall < 100e-12
                delays[drive, load] = max(rise, fall)
            for drive in drives:
                by_load = [delays[drive, load] for load in loads]
                assert all(light < heavy for light, heavy
                           in zip(by_load, by_load[1:])), (gate, drive)

    def test_supply_only_batch_of_one_matches_loop(self):
        """No integrated net (every net is a rail or driven) and ten
        p-type devices of different widths on the supply, in batches of
        one: the supply sum is the only accumulation, and it must keep the
        loop's sequential order (NumPy sums a lone reduction axis
        pairwise).  A few sub-steps at held levels keep a one-ulp
        difference visible in the supply charge."""
        inverter = cmos_inverter()
        netlist = TransistorNetlist("parallel", vdd=1.0)
        widths = (1.0, 1.1, 1.3, 1.7, 2.3, 0.5, 2.9, 0.7, 1.9, 3.1)
        for i, width in enumerate(widths):
            drain, source = ("out", VDD) if i % 2 else (VDD, "out")
            netlist.add_transistor(f"P{i}", inverter.pull_up.scaled(width),
                                   gate="in", drain=drain, source=source)
        netlist.declare_io(["in", "out"], [])
        for level_in in (0.0, 0.1, 0.2, 0.3):
            for level_out in (0.0, 0.25, 0.5, 0.75, 1.05):
                case = SimulationCase(netlist, {
                    "in": constant_source(level_in),
                    "out": constant_source(level_out),
                })
                batch = run_transient_batch([case], 1e-14, 1e-14)[0]
                _assert_identical(_loop(case, stop=1e-14, step=1e-14), batch)

    def test_run_default_engine_is_batch_and_identical(self):
        case = _cnfet_chain_case()
        simulator = TransientSimulator(case.netlist, case.sources,
                                       case.initial_conditions)
        _assert_identical(simulator.run_reference(STOP, STEP),
                          simulator.run(STOP, STEP))

    def test_source_on_unreferenced_net_matches_loop(self):
        """A source driving a net no device references: the loop engine
        records its waveform without electrical effect, and the batch
        engine must do exactly the same (regression: this used to raise
        KeyError during compilation)."""
        case = _cnfet_chain_case()
        sources = dict(case.sources)
        sources["monitor"] = step_source(1.0, delay=5e-12, rise_time=2e-12)
        augmented = SimulationCase(case.netlist, sources,
                                   case.initial_conditions)
        batch = run_transient_batch([augmented], STOP, STEP)[0]
        loop = _loop(augmented)
        _assert_identical(loop, batch)
        assert "monitor" in batch.waveforms
        assert batch.voltage("monitor")[-1] == 1.0


class TestMeasurementParity:
    def test_crossing_and_energy_parity_under_backdrive(self):
        """A rail-to-rail pulse through one FO4 inverter back-drives the
        supply during the falling edge; crossing times and supply energy
        must agree exactly across the engines."""
        netlist = build_inverter_chain(cmos_inverter(), stages=1, fanout=4,
                                       vdd=1.0)
        source = pulse_source(1.0, delay=20e-12, rise_time=2e-12,
                              width=200e-12)
        case = SimulationCase(netlist, {"in": source}, {"n1": 1.0})
        loop = _loop(case, stop=450e-12, step=1e-12)
        batch = run_transient_batch([case], 450e-12, 1e-12)[0]
        _assert_identical(loop, batch)
        for rising in (True, False):
            assert loop.crossing_time("n1", 0.5, rising=rising) == \
                batch.crossing_time("n1", 0.5, rising=rising)
        assert loop.propagation_delay("in", "n1") == \
            batch.propagation_delay("in", "n1")
        assert loop.supply_energy == batch.supply_energy
        # The back-drive guard of PR 1 still holds on both engines.
        load = netlist.node_capacitance("n1")
        assert 0.5 * load < batch.supply_charge < 4.0 * load


class TestVectorizedPWL:
    def test_matches_scalar_value_everywhere(self):
        """The padded vectorized PWL evaluator against the scalar oracle,
        including breakpoints, duplicate time points, the pre-first-point
        region and the hold-last-value tail."""
        sources = [
            PiecewiseLinearSource([(0.0, 0.2)]),
            step_source(1.0, delay=1e-12, rise_time=2e-12),
            pulse_source(0.9, delay=2e-12, rise_time=1e-12, width=3e-12),
            PiecewiseLinearSource([(0.0, 0.0), (1e-12, 1.0), (1e-12, 0.5),
                                   (4e-12, 0.5)]),
        ]
        inverter = cmos_inverter()
        netlist = build_inverter_chain(inverter, stages=1, fanout=1, vdd=1.0)
        # One case per source, all driving "in".
        cases = [SimulationCase(netlist, {"in": source}, {"n1": 1.0})
                 for source in sources]
        compiled = CompiledTransientBatch(cases)
        probe = np.array(
            [0.0, 0.5e-12, 1e-12, 1.5e-12, 2e-12, 3e-12, 4e-12, 5e-12,
             6e-12, 7e-12, 1e-9]
        )
        values = compiled._source_values(probe)       # (K, B, 1)
        for case_i, source in enumerate(sources):
            for time_i, time in enumerate(probe):
                assert values[time_i, case_i, 0] == source.value(float(time)), (
                    case_i, time)


class TestBatchValidation:
    def test_topology_mismatch_rejected(self):
        a = _cnfet_chain_case(stages=3)
        b = _cnfet_chain_case(stages=2)
        with pytest.raises(SimulationError):
            run_transient_batch([a, b], STOP, STEP)

    def test_missing_source_rejected(self):
        case = _cnfet_chain_case()
        with pytest.raises(SimulationError):
            run_transient_batch(
                [SimulationCase(case.netlist, {}, None)], STOP, STEP
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            run_transient_batch([], STOP, STEP)

    def test_mismatched_supply_list_rejected(self):
        inverter = cmos_inverter()
        with pytest.raises(SimulationError):
            simulate_inverter_chain_batch([inverter], vdd=[1.0, 0.9])

    def test_invalid_time_base_rejected(self):
        case = _cnfet_chain_case()
        with pytest.raises(SimulationError):
            run_transient_batch([case], -1.0, STEP)


class TestCharacterizationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return characterize_sweep(
            gate_names=("INV", "NAND2"),
            drive_strengths=(1.0, 2.0),
            load_capacitances_f=(1e-15, 4e-15),
            input_slews_s=(5e-12,),
            corners={"tt": cnfet_technology(),
                     "lv": cnfet_technology(vdd=0.9)},
        )

    def test_grid_shape(self, sweep):
        assert sweep.shape == (2, 2, 2, 1, 2)
        assert len(sweep.points) == 16
        assert sweep.grid().shape == sweep.shape
        assert sweep.grid("energy_per_cycle_j").shape == sweep.shape

    def test_delay_monotone_in_load(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(np.diff(grid, axis=2) > 0.0)

    def test_stronger_drive_is_faster(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(np.diff(grid, axis=1) < 0.0)

    def test_low_voltage_corner_is_slower(self, sweep):
        grid = sweep.grid("worst_delay_s")
        assert np.all(grid[..., 1] > grid[..., 0])

    def test_point_lookup(self, sweep):
        point = sweep.point("NAND2", 2.0, 4e-15, 5e-12, "lv")
        assert point.cell == "NAND2"
        assert point.vdd == 0.9
        with pytest.raises(Exception):
            sweep.point("NAND2", 3.0, 4e-15, 5e-12, "lv")

    def test_all_positive(self, sweep):
        for point in sweep.points:
            assert point.delay_rise_s > 0
            assert point.delay_fall_s > 0
            assert point.energy_per_cycle_j > 0

    def test_measured_models_reproduce_sweep_delays(self):
        gate = standard_gate("INV")
        tech = cnfet_technology()
        loads = (1e-15, 2e-15, 4e-15)
        models = measured_timing_models(gate, tech, drive_strengths=(1.0,),
                                        loads=loads)
        model = models[1.0]
        check = characterize_sweep(
            gate_names=("INV",), drive_strengths=(1.0,),
            load_capacitances_f=loads,
            corners={"nominal": tech},
        )
        for load in loads:
            measured = check.point("INV", 1.0, load, 5e-12,
                                   "nominal").worst_delay_s
            assert model.stage_delay(load) == pytest.approx(measured,
                                                            rel=0.25)
