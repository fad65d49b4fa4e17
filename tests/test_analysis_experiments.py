"""Integration tests: the experiment runners reproduce the paper's numbers."""

import pytest

from repro.analysis import (
    GainReport,
    TechnologyFigures,
    run_edp_summary,
    run_fig2_immunity,
    run_fig3_nand3,
    run_fig4_aoi31,
    run_fig7_fo4,
    run_fo4_transient_sweep,
    run_fulladder_case_study,
    run_immunity_sweep,
    run_pitch_sensitivity,
    run_table1,
)
from repro.errors import StudyError
from repro.paper import anchor


class TestMetrics:
    def test_gain_report_math(self):
        cnfet = TechnologyFigures("cnfet", delay_s=5e-12, energy_per_cycle_j=1e-15,
                                  area_lambda2=100.0)
        cmos = TechnologyFigures("cmos", delay_s=20e-12, energy_per_cycle_j=2e-15,
                                 area_lambda2=140.0)
        report = GainReport(cnfet=cnfet, cmos=cmos)
        assert report.delay_gain == pytest.approx(4.0)
        assert report.energy_gain == pytest.approx(2.0)
        assert report.area_gain == pytest.approx(1.4)
        assert report.edp_gain == pytest.approx(8.0)
        assert report.edap_gain == pytest.approx(8.0 * 1.4)
        assert "delay gain : 4.00x" in report.summary()


class TestTable1Experiment:
    def test_measured_matches_paper_within_tolerance(self):
        """The reported error is the mean over the 20 entries of Table 1;
        its tolerance is the ``table1.mean_abs_error`` row of repro.paper."""
        result = run_table1()
        errors = [abs(row.measured_saving - row.paper_saving)
                  for row in result.rows]
        assert result.mean_absolute_error == pytest.approx(
            sum(errors) / len(errors))
        assert anchor("table1.mean_abs_error").holds(
            result.mean_absolute_error)
        assert "NAND3" in result["formatted"]

    def test_every_paper_entry_covered(self):
        rows = run_table1()["rows"]
        assert len(rows) == 20


class TestFigure3Experiment:
    def test_nand3_walkthrough(self):
        result = run_fig3_nand3()
        assert result.compact_area < result.baseline_area
        assert result.measured_saving == pytest.approx(
            1 - result.compact_area / result.baseline_area)
        assert result.paper_saving == anchor("fig3.nand3_saving_4l").paper


class TestFigure2Experiment:
    def test_immunity_claims(self):
        result = run_fig2_immunity(trials=40, cnts_per_trial=4, seed=7)
        assert result["compact_immune"] is True
        assert result["baseline_immune"] is True
        assert result["vulnerable_failure_rate"] > 0.0
        assert "vulnerable" in result["formatted"]


class TestImmunitySweepExperiment:
    def test_points_in_product_order_technique_fastest(self):
        result = run_immunity_sweep(gates=("NAND2",), cnts_per_trial=(2, 4),
                                    trials=20, seed=3)
        assert [(p.cnts_per_trial, p.technique) for p in result.points] == [
            (cnts, technique) for cnts in (2, 4)
            for technique in ("vulnerable", "baseline", "compact")
        ]
        assert result.compact_always_immune is True

    def test_no_compact_point_reports_no_verdict(self):
        """Without a compact point the flag is None, not a vacuous True."""
        result = run_immunity_sweep(gates=("NAND2",),
                                    techniques=("vulnerable",),
                                    cnts_per_trial=(4,), trials=20, seed=3)
        assert result.compact_always_immune is None
        assert result.worst_failure_rate_by_technique["vulnerable"] > 0.0

    def test_empty_axis_is_a_study_error(self):
        with pytest.raises(StudyError):
            run_immunity_sweep(gates=())


class TestFigure4Experiment:
    def test_aoi31_layout_summary(self):
        result = run_fig4_aoi31()
        assert result["gate"] == "AOI31"
        assert result["requires_etched_regions"] == 0
        assert result["pun_gates"] == 4 and result["pdn_gates"] == 4
        # Width balancing: PDN has 1x and 3x devices, PUN devices are 2x.
        assert result["pdn_width_factors"] == [4.0, 12.0]
        assert result["pun_width_factors"] == [8.0]
        assert result["scheme2_area"] < result["scheme1_area"]


class TestFigure7Experiment:
    def test_gain_curve_shape(self):
        sweep = run_fig7_fo4(max_tubes=20)["sweep"]
        gains = [point["delay_gain"] for point in sweep]
        # Rises from the single-tube value towards the optimum.
        assert gains[0] < gains[3] < max(gains)
        # The optimum is an interior point of the sweep (screening eventually
        # stops helping).
        assert gains.index(max(gains)) < len(gains) - 1

    def test_formatting(self):
        text = str(run_fig7_fo4(max_tubes=8))
        assert "delay gain" in text
        assert "optimal" in text

    def test_pitch_sensitivity_is_small_near_optimum(self):
        result = run_pitch_sensitivity()
        assert anchor("pitch.delay_variation").holds(result.delay_variation)
        assert result.paper_variation == anchor("pitch.delay_variation").paper

    def test_max_tubes_below_one_is_a_study_error(self):
        with pytest.raises(StudyError, match="max_tubes"):
            run_fig7_fo4(max_tubes=-3)

    def test_fo4_transient_cross_check(self):
        """The waveform sweep reproduces the analytical trend: a single
        tube is already faster than CMOS, and the densest measured corners
        gain more than 3x."""
        result = run_fo4_transient_sweep(tube_counts=(1, 2, 4, 6, 8))
        assert result.batch_size == 6
        assert result.sweep[0].delay_gain > 1.5
        assert result.optimal.delay_gain > 3.0


class TestFullAdderExperiment:
    def test_case_study_2(self):
        result = run_fulladder_case_study()
        # Scheme 2 recovers more area than scheme 1, as in the paper.
        assert result["area_gain_scheme2"] > result["area_gain_scheme1"]
        assert result.paper == {key: anchor(f"fig8.{key}").paper
                                for key in result.paper}
        assert len(result.paper) == 4
        assert "Full adder" in str(result)

    def test_flow_reports_available(self):
        result = run_fulladder_case_study()
        for scheme, flow in result["flow_results"].items():
            assert flow.report.scheme == scheme
            assert flow.gds_bytes


class TestEDPSummary:
    def test_headline_numbers(self):
        """The headline gains are products of the Figure 7 sweep; the
        paper's values are the ``edp.*`` rows of repro.paper."""
        summary = run_edp_summary()
        fig7 = run_fig7_fo4()
        assert summary.delay_gain_optimal == fig7.optimal.delay_gain
        assert summary.edp_gain_optimal == pytest.approx(
            fig7.optimal.delay_gain * fig7.optimal.energy_gain)
        assert summary.edp_gain_best == max(summary.edp_gain_optimal,
                                            summary.edp_gain_single_cnt)
        assert summary.edap_gain_optimal == pytest.approx(
            summary.edp_gain_optimal * fig7.inverter_area_gain)
        assert (summary.paper_edp_gain, summary.paper_edap_gain,
                summary.paper_area_saving) == (
            anchor("edp.edp_gain_best").paper,
            anchor("edp.edap_gain_optimal").paper,
            anchor("edp.area_gain").paper)
