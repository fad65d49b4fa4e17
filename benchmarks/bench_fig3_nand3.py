"""E2 — Figure 3: the NAND3 compaction walk-through (16.67 % at 4 λ),
plus the NAND3 waveform parity check of the batch transient engine."""

import numpy as np
from conftest import planned_cases_match_reference, record

from repro.analysis import run_fig3_nand3
from repro.cells import characterize_sweep


def test_fig3_nand3_compaction(benchmark):
    result = benchmark(run_fig3_nand3)
    record(
        benchmark,
        measured_saving=round(result.measured_saving, 4),
        paper_saving=result.paper_saving,
        baseline_area_lambda2=result.baseline_area,
        compact_area_lambda2=result.compact_area,
    )
    assert abs(result.measured_saving - result.paper_saving) < 0.01


def test_fig3_nand3_transient_parity(benchmark):
    """The NAND3 stimulus of the waveform walk-through: every planned
    case's waveforms are byte-identical to the scalar reference loop."""
    grid = ((1.0, 2.0), (2e-15,), (5e-12,))
    batch = benchmark.pedantic(
        characterize_sweep, args=(("NAND3",), *grid), iterations=1, rounds=1)
    identical = planned_cases_match_reference("NAND3", *grid)
    point = batch.point("NAND3", 1.0, 2e-15, 5e-12, "nominal")
    record(
        benchmark,
        delay_rise_ps=round(point.delay_rise_s * 1e12, 3),
        delay_fall_ps=round(point.delay_fall_s * 1e12, 3),
        energy_fj=round(point.energy_per_cycle_j * 1e15, 4),
        identical_to_loop=identical,
    )
    assert identical
    assert 0 < point.delay_fall_s < 100e-12
    assert np.all(batch.grid("worst_delay_s") > 0)
