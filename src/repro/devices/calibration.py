"""Calibrated device parameters.

The paper does not publish its HSPICE decks, so the free constants of the
CNFET compact model (per-tube capacitance, fixed parasitics, screening
strength) are calibrated against the anchor points it *does* report for the
FO4 inverter experiment (Case study 1 / Figure 7):

* 1 CNT per device: 2.75× faster, 6.3× lower switching energy per cycle
  than the 65 nm CMOS inverter at 1 V;
* at the optimal pitch of 5 nm: 4.2× faster, 2× lower energy per cycle;
* the optimal-pitch plateau spans roughly 4.5-5.5 nm (≤1 % delay change).

The ``fig7`` and ``pitch`` rows of :mod:`repro.paper` (``python -m repro
verify``) check the calibrated model against these anchors instead of
trusting it.
"""

from __future__ import annotations

from .cnfet import CNFETParameters
from .mosfet import MOSFETParameters, NMOS_65, PMOS_65

#: Fixed CNFET gate width used for the Figure 7 sweep (the paper keeps the
#: gate width constant while increasing the number of tubes; the value below
#: is chosen together with the screening calibration so the optimum lands at
#: a 5 nm pitch).
FO4_GATE_WIDTH_NM = 32.5

#: Reference CMOS inverter sizes at 65 nm (minimum-size nMOS, 1.4× pMOS).
CMOS_NMOS_WIDTH_NM = 200.0
CMOS_PMOS_WIDTH_NM = 280.0


def calibrated_cnfet_parameters() -> CNFETParameters:
    """The CNFET parameter set calibrated against the Figure 7 anchors.

    Provenance of each value:

    * ``on_current_per_tube`` — pinned by the 2.75×/6.3× single-tube
      anchors given the CMOS reference; lands at ~28 µA, consistent with
      the near-ballistic on-current of a single tube at 1 V (~25-30 µA).
    * ``gate_cap_per_tube`` / ``fixed_*`` — pinned by the 6.3× (single
      tube) and 2× (optimal pitch) energy anchors.
    * ``screening_pitch_nm`` / ``screening_exponent`` /
      ``current_screening_power`` — pinned by the 4.2× optimal gain and by
      the optimum falling at a 5 nm pitch.
    """
    return CNFETParameters(
        threshold_voltage=0.29,
        on_current_per_tube=27.94e-6,
        gate_cap_per_tube=21.53e-18,
        drain_cap_per_tube=3.13e-18,
        fixed_gate_cap_per_um=0.408e-15,
        fixed_drain_cap_per_um=0.544e-15,
        screening_pitch_nm=5.15,
        screening_exponent=2.0,
        current_screening_power=1.0,
        alpha=1.2,
        series_resistance_per_tube=12.0e3,
        nominal_vdd=1.0,
    )


def calibrated_nmos_parameters() -> MOSFETParameters:
    """Reference 65 nm nMOS parameters."""
    return NMOS_65


def calibrated_pmos_parameters() -> MOSFETParameters:
    """Reference 65 nm pMOS parameters."""
    return PMOS_65
