"""Tests for the CNT/CNFET/MOSFET device models and their calibration."""

import pytest
from hypothesis import given, strategies as st

from repro.devices import (
    CNFET,
    CNFETParameters,
    Chirality,
    DEFAULT_CHIRALITY,
    MOSFET,
    ballistic_on_current,
    calibrated_cnfet_parameters,
    oxide_capacitance_per_length,
    quantum_capacitance_per_length,
)
from repro.errors import DeviceModelError


class TestCNTPhysics:
    def test_default_chirality_is_semiconducting(self):
        assert DEFAULT_CHIRALITY.is_semiconducting
        assert DEFAULT_CHIRALITY.diameter_nm() == pytest.approx(1.49, rel=0.02)
        assert DEFAULT_CHIRALITY.band_gap_ev() == pytest.approx(0.58, rel=0.05)
        assert 0.25 < DEFAULT_CHIRALITY.threshold_voltage() < 0.32

    @pytest.mark.parametrize("n,m,metallic", [(19, 0, False), (18, 0, True),
                                              (13, 13, True), (17, 3, False)])
    def test_metallic_rule(self, n, m, metallic):
        assert Chirality(n, m).is_metallic is metallic

    def test_invalid_chirality(self):
        with pytest.raises(DeviceModelError):
            Chirality(0, 0)
        with pytest.raises(DeviceModelError):
            Chirality(3, 5)

    def test_quantum_capacitance_magnitude(self):
        # ~400 aF/um is the commonly quoted value.
        assert quantum_capacitance_per_length() == pytest.approx(4e-10, rel=0.25)

    def test_oxide_capacitance_increases_with_dielectric(self):
        low = oxide_capacitance_per_length(3.9, 4.0, 1.5)
        high = oxide_capacitance_per_length(16.0, 4.0, 1.5)
        assert high > low > 0

    def test_ballistic_current_magnitude(self):
        current = ballistic_on_current(1.0, 0.3)
        assert 15e-6 < current < 30e-6

    @given(st.integers(min_value=5, max_value=30))
    def test_band_gap_shrinks_with_diameter(self, n):
        tube = Chirality(n, 0)
        if tube.is_metallic:
            assert tube.band_gap_ev() == 0.0
        else:
            bigger = Chirality(n + 3, 0)
            if not bigger.is_metallic:
                assert bigger.band_gap_ev() < tube.band_gap_ev()


class TestCNFETModel:
    def test_single_tube_has_no_screening(self):
        device = CNFET("n", num_tubes=1, gate_width_nm=32.5)
        assert device.screening == pytest.approx(1.0)

    def test_screening_decreases_with_density(self):
        params = calibrated_cnfet_parameters()
        sparse = CNFET("n", 8, 65.0, parameters=params)
        dense = CNFET("n", 16, 65.0, parameters=params)
        assert dense.screening < sparse.screening <= 1.0
        assert dense.screening < 1.0

    def test_on_current_scales_sublinearly_with_tubes(self):
        params = calibrated_cnfet_parameters()
        one = CNFET("n", 1, 32.5, parameters=params).on_current(1.0)
        six = CNFET("n", 6, 32.5, parameters=params).on_current(1.0)
        assert six > one
        assert six < 6 * one  # screening penalty

    def test_ids_regions(self):
        device = CNFET("n", 4, 65.0, parameters=calibrated_cnfet_parameters())
        assert device.ids(0.0, 1.0) == 0.0                       # off
        assert device.ids(1.0, 0.0) == 0.0                       # no vds
        linear = device.ids(1.0, 0.05)
        saturated = device.ids(1.0, 1.0)
        assert 0 < linear < saturated
        assert saturated == pytest.approx(device.on_current(1.0), rel=1e-6)

    def test_p_device_polarity(self):
        device = CNFET("p", 2, 65.0, parameters=calibrated_cnfet_parameters())
        assert device.ids(-1.0, -1.0) > 0
        assert device.ids(1.0, 1.0) == 0.0

    def test_gate_capacitance_components(self):
        params = calibrated_cnfet_parameters()
        narrow = CNFET("n", 1, 32.5, parameters=params)
        wide = CNFET("n", 1, 325.0, parameters=params)
        assert wide.gate_capacitance() > narrow.gate_capacitance()  # fixed term scales

    def test_effective_resistance(self):
        device = CNFET("n", 6, 32.5, parameters=calibrated_cnfet_parameters())
        assert device.effective_resistance(1.0) > 0

    def test_scaled_device(self):
        device = CNFET("n", 2, 65.0, parameters=calibrated_cnfet_parameters())
        bigger = device.scaled(3.0)
        assert bigger.num_tubes == 6
        assert bigger.gate_width_nm == pytest.approx(195.0)

    def test_invalid_parameters(self):
        with pytest.raises(DeviceModelError):
            CNFETParameters(threshold_voltage=1.5)
        with pytest.raises(DeviceModelError):
            CNFET("x", 1)
        with pytest.raises(DeviceModelError):
            CNFET("n", 0)

    @given(st.integers(min_value=1, max_value=40))
    def test_on_current_monotone_in_tubes(self, tubes):
        params = calibrated_cnfet_parameters()
        current = CNFET("n", tubes, 32.5, parameters=params).on_current(1.0)
        more = CNFET("n", tubes + 1, 32.5, parameters=params).on_current(1.0)
        assert more >= current * 0.90  # dips only slightly past the optimal pitch


class TestMOSFETModel:
    def test_on_current_scales_with_width(self):
        narrow = MOSFET("n", 100.0)
        wide = MOSFET("n", 200.0)
        assert wide.on_current(1.0) == pytest.approx(2 * narrow.on_current(1.0))

    def test_pmos_is_weaker(self):
        nmos = MOSFET("n", 200.0)
        pmos = MOSFET("p", 200.0)
        assert pmos.on_current(1.0) < nmos.on_current(1.0)

    def test_ids_off_below_threshold(self):
        device = MOSFET("n", 200.0)
        assert device.ids(0.2, 1.0) == 0.0

    def test_capacitances_scale_with_width(self):
        assert MOSFET("n", 400.0).gate_capacitance() == pytest.approx(
            2 * MOSFET("n", 200.0).gate_capacitance()
        )

    def test_invalid_width(self):
        with pytest.raises(DeviceModelError):
            MOSFET("n", -5.0)


class TestCalibration:
    def test_cmos_reference_fo4_is_plausible_for_65nm(self):
        from repro.analysis import run_fig7_fo4

        assert 10.0 < run_fig7_fo4().optimal.cmos_delay_ps < 40.0

    def test_calibrated_on_current_is_physical(self):
        params = calibrated_cnfet_parameters()
        assert 15e-6 < params.on_current_per_tube < 35e-6
