"""Case study 1 (Figure 7): FO4 gains versus the number of CNTs per device.

Sweeps the number of tubes under a fixed gate width, prints the delay /
energy / EDP gains over the 65 nm CMOS inverter, locates the optimal CNT
pitch and cross-checks one point with the transient simulator — the same
procedure the paper uses to conclude that the optimal pitch is a technology
parameter that must be handed to the CNT growth process.

Run with ``python examples/fo4_pitch_exploration.py``.
"""

from __future__ import annotations

from repro.analysis import run_fig7_fo4, run_pitch_sensitivity
from repro.circuit import (
    cmos_inverter,
    cnfet_inverter,
    fo4_metrics,
    fo4_metrics_transient,
)
from repro.devices import FO4_GATE_WIDTH_NM, calibrated_cnfet_parameters
from repro.paper import anchor


def sweep():
    result = run_fig7_fo4(max_tubes=20)   # typed Fig7Result
    print("FO4 gains of the CNFET inverter over 65 nm CMOS (Figure 7 sweep)")
    print(result)                         # str(result) renders the table
    print()
    sensitivity = run_pitch_sensitivity()
    print(f"Delay variation across the 4.5-5.5 nm pitch window: "
          f"{sensitivity.delay_variation * 100:.1f}% "
          f"(paper: ~{sensitivity.paper_variation * 100:.0f}%)")
    print(f"Inverter area gain vs CMOS: {result.inverter_area_gain:.2f}x "
          f"(paper: {anchor('fig7.inverter_area_gain').paper}x)")
    return result


def transient_cross_check(result) -> None:
    best_tubes = int(result.optimal.num_tubes)
    params = calibrated_cnfet_parameters()
    cnfet = cnfet_inverter(best_tubes, FO4_GATE_WIDTH_NM, parameters=params)
    cmos = cmos_inverter()

    print()
    print("Transient-simulation cross-check at the optimal pitch:")
    for name, inverter in (("CNFET", cnfet), ("CMOS ", cmos)):
        analytic = fo4_metrics(inverter)
        waveform = fo4_metrics_transient(inverter)
        print(f"  {name}: FO4 = {waveform.delay_s * 1e12:6.2f} ps (waveform) vs "
              f"{analytic.delay_s * 1e12:6.2f} ps (analytical), "
              f"E/cycle = {waveform.energy_per_cycle_j * 1e15:.2f} fJ")

    cnfet_tr = fo4_metrics_transient(cnfet)
    cmos_tr = fo4_metrics_transient(cmos)
    print(f"  waveform-level delay gain : {cmos_tr.delay_s / cnfet_tr.delay_s:.2f}x")
    print(f"  waveform-level energy gain: "
          f"{cmos_tr.energy_per_cycle_j / cnfet_tr.energy_per_cycle_j:.2f}x")


def main() -> None:
    result = sweep()
    transient_cross_check(result)
    print()
    print("Interpretation: more tubes amortise the fixed parasitics until")
    print("inter-CNT screening erodes the per-tube drive; the crossover —")
    print("the optimal pitch — lands near 5 nm for this poly-gate / low-k")
    print("platform, exactly the technology-dependence the paper highlights.")


if __name__ == "__main__":
    main()
