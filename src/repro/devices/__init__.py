"""Device models: CNT physics, CNFET compact model, reference 65 nm MOSFET."""

from .calibration import (
    CMOS_NMOS_WIDTH_NM,
    CMOS_PMOS_WIDTH_NM,
    FO4_GATE_WIDTH_NM,
    calibrated_cnfet_parameters,
    calibrated_nmos_parameters,
    calibrated_pmos_parameters,
)
from .cnfet import CNFET, CNFETParameters
from .cnt import (
    Chirality,
    DEFAULT_CHIRALITY,
    ballistic_on_current,
    oxide_capacitance_per_length,
    quantum_capacitance_per_length,
)
from .mosfet import MOSFET, MOSFETParameters, NMOS_65, PMOS_65
from .powerlaw import alpha_power

__all__ = [
    "CMOS_NMOS_WIDTH_NM",
    "CMOS_PMOS_WIDTH_NM",
    "FO4_GATE_WIDTH_NM",
    "calibrated_cnfet_parameters",
    "calibrated_nmos_parameters",
    "calibrated_pmos_parameters",
    "CNFET",
    "CNFETParameters",
    "Chirality",
    "DEFAULT_CHIRALITY",
    "ballistic_on_current",
    "oxide_capacitance_per_length",
    "quantum_capacitance_per_length",
    "MOSFET",
    "MOSFETParameters",
    "NMOS_65",
    "PMOS_65",
    "alpha_power",
]
