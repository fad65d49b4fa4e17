"""E4 — Figure 4: the generalised AOI31 misaligned-CNT-immune layout,
plus the AOI31 waveform parity check of the batch transient engine."""

from conftest import planned_cases_match_reference, record

from repro.analysis import run_fig4_aoi31
from repro.cells import characterize_sweep


def test_fig4_aoi31_layout(benchmark):
    result = benchmark(run_fig4_aoi31)
    record(
        benchmark,
        pun_contacts=result.pun_contacts,
        pdn_contacts=result.pdn_contacts,
        scheme1_area_lambda2=result.scheme1_area,
        scheme2_area_lambda2=result.scheme2_area,
        etched_regions=result.requires_etched_regions,
        pdn_width_factors=str(list(result.pdn_width_factors)),
        pun_width_factors=str(list(result.pun_width_factors)),
    )
    # The compact construction needs no etched regions at all, and the
    # symmetric sizing widens the single-transistor PDN branch as in the
    # paper's Figure 4(b).
    assert result.requires_etched_regions == 0
    assert max(result.pdn_width_factors) > min(result.pdn_width_factors)


def test_fig4_aoi31_transient_parity(benchmark):
    """The AOI31 waveforms: the complex-gate netlist (series/parallel PUN
    and PDN with internal nodes) integrates every planned case
    byte-identically to the scalar reference loop."""
    grid = ((1.0,), (1e-15, 4e-15), (5e-12,))
    batch = benchmark.pedantic(
        characterize_sweep, args=(("AOI31",), *grid), iterations=1, rounds=1)
    identical = planned_cases_match_reference("AOI31", *grid)
    light, heavy = batch.points
    record(
        benchmark,
        delay_fall_1ff_ps=round(light.delay_fall_s * 1e12, 3),
        delay_fall_4ff_ps=round(heavy.delay_fall_s * 1e12, 3),
        identical_to_loop=identical,
    )
    assert identical
    assert heavy.worst_delay_s > light.worst_delay_s
