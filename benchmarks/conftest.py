"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and records the
paper-reported value next to the measured one in ``benchmark.extra_info`` so
the JSON output doubles as the reproduction record.
"""

import pytest


def record(benchmark, **values):
    """Attach paper-vs-measured values to a benchmark result."""
    for key, value in values.items():
        benchmark.extra_info[key] = value


def planned_cases_match_reference(gate_name, drive_strengths,
                                  load_capacitances_f, input_slews_s):
    """Whether every case of one cell's characterisation grid, planned as
    ``characterize_sweep`` plans it (nominal corner, 4 λ, first pin),
    integrates to byte-identical waveforms and supply charge on the batch
    engine and on the scalar reference loop."""
    from repro.cells import cnfet_technology
    from repro.cells.characterize import _plan_cell_cases
    from repro.circuit import TransientSimulator, run_transient_batch

    _, _, _, cases, stop, step = _plan_cell_cases(
        gate_name, drive_strengths, load_capacitances_f, input_slews_s,
        {"nominal": cnfet_technology()}, 4.0, None)
    for case, batch in zip(cases, run_transient_batch(cases, stop, step)):
        reference = TransientSimulator(
            case.netlist, case.sources, case.initial_conditions,
        ).run_reference(stop, step)
        if (reference.supply_charge != batch.supply_charge
                or set(reference.waveforms) != set(batch.waveforms)
                or any(reference.waveforms[net].tobytes()
                       != batch.waveforms[net].tobytes()
                       for net in reference.waveforms)):
            return False
    return True
