"""Analytical area comparisons: Table 1, Figure 3 and the CMOS area gains.

The paper quantifies its contribution through three area comparisons:

* **Table 1** — active-region area of the new compact layouts versus the
  baseline etched-region layouts of [6], per cell type and unit transistor
  width (3/4/6/10 λ);
* **Figure 3** — the NAND3 walk-through (16.67 % smaller at 4 λ);
* **Case study 1** — the 1.4× area gain of a CNFET inverter over the CMOS
  one, which comes from symmetric n/p devices and the smaller PUN-to-PDN
  separation (6 λ vs 10 λ).

The functions here drive the layout generators and report paper-vs-measured
values; the paper's numbers come from :mod:`repro.paper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..logic.functions import standard_gate
from ..logic.network import GateNetworks
from ..paper import TABLE1_CELLS, TABLE1_WIDTHS, table1_saving
from ..tech.lambda_rules import CMOS_RULES, CNFET_RULES, DesignRules
from .grid import baseline_network_layout
from .compact import compact_network_layout
from .standard_cell import assemble_cell, cmos_cell_area


@dataclass(frozen=True)
class NetworkAreas:
    """Bounding-box areas (λ²) of one gate's PUN and PDN for one technique."""

    pun_area: float
    pdn_area: float

    @property
    def total(self) -> float:
        return self.pun_area + self.pdn_area


def compact_network_areas(gate: GateNetworks, unit_width: float,
                          rules: DesignRules = CNFET_RULES) -> NetworkAreas:
    """PUN/PDN bounding-box areas of the compact (Euler-path) technique."""
    pun = compact_network_layout(gate.pun, gate.pun_tree, unit_width, rules)
    pdn = compact_network_layout(gate.pdn, gate.pdn_tree, unit_width, rules)
    return NetworkAreas(pun.bbox_area, pdn.bbox_area)


def baseline_network_areas(gate: GateNetworks, unit_width: float,
                           rules: DesignRules = CNFET_RULES) -> NetworkAreas:
    """PUN/PDN bounding-box areas of the baseline etched-region technique."""
    pun = baseline_network_layout(gate, "pun", unit_width, rules)
    pdn = baseline_network_layout(gate, "pdn", unit_width, rules)
    return NetworkAreas(pun.bbox_area, pdn.bbox_area)


@dataclass(frozen=True)
class AreaComparisonRow:
    """One (cell, width) entry of the Table 1 comparison."""

    cell: str
    unit_width: float
    baseline_area: float
    compact_area: float
    paper_saving: Optional[float]

    @property
    def measured_saving(self) -> float:
        """Fractional area saved by the compact technique."""
        if self.baseline_area <= 0:
            return 0.0
        return (self.baseline_area - self.compact_area) / self.baseline_area

    @property
    def error_vs_paper(self) -> Optional[float]:
        """Absolute difference from the paper's value (percentage points)."""
        if self.paper_saving is None:
            return None
        return abs(self.measured_saving - self.paper_saving)


def area_saving(gate: GateNetworks, unit_width: float,
                rules: DesignRules = CNFET_RULES) -> AreaComparisonRow:
    """Compute one Table 1 entry for an arbitrary gate."""
    baseline = baseline_network_areas(gate, unit_width, rules)
    compact = compact_network_areas(gate, unit_width, rules)
    paper = table1_saving(gate.name, unit_width)
    return AreaComparisonRow(
        cell=gate.name,
        unit_width=unit_width,
        baseline_area=baseline.total,
        compact_area=compact.total,
        paper_saving=paper,
    )


def table1(
    cells: Sequence[str] = TABLE1_CELLS,
    widths: Sequence[float] = TABLE1_WIDTHS,
    rules: DesignRules = CNFET_RULES,
) -> List[AreaComparisonRow]:
    """Regenerate Table 1: one row per (cell, unit width)."""
    rows: List[AreaComparisonRow] = []
    for cell_name in cells:
        gate = standard_gate(cell_name)
        for width in widths:
            rows.append(area_saving(gate, width, rules))
    return rows


def format_table1(rows: Sequence[AreaComparisonRow]) -> str:
    """Render Table 1 rows as a fixed-width text table (paper vs measured)."""
    header = (
        f"{'cell':<8} {'W(λ)':>5} {'baseline(λ²)':>13} {'compact(λ²)':>12} "
        f"{'measured':>9} {'paper':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = f"{row.paper_saving * 100:6.2f}%" if row.paper_saving is not None else "   n/a"
        lines.append(
            f"{row.cell:<8} {row.unit_width:>5.0f} {row.baseline_area:>13.1f} "
            f"{row.compact_area:>12.1f} {row.measured_saving * 100:>8.2f}% {paper:>7}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CNFET vs CMOS cell-area gains (Case studies 1 and 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellAreaGain:
    """Area of a CNFET cell versus the equivalent CMOS cell."""

    gate_name: str
    scheme: int
    cnfet_area: float
    cmos_area: float

    @property
    def gain(self) -> float:
        """How many times smaller the CNFET cell is."""
        if self.cnfet_area <= 0:
            return float("inf")
        return self.cmos_area / self.cnfet_area


def inverter_area_gain(
    unit_width: float = 4.0,
    scheme: int = 1,
    cnfet_rules: DesignRules = CNFET_RULES,
    cmos_rules: DesignRules = CMOS_RULES,
) -> CellAreaGain:
    """The ~1.4× inverter area gain of Case study 1.

    The CNFET inverter has symmetric n/p widths and a 6 λ PUN-to-PDN
    separation; the CMOS inverter needs a 1.4× wider pMOS and a 10 λ
    separation.
    """
    gate = standard_gate("INV")
    cnfet = assemble_cell(gate, technique="compact", scheme=scheme,
                          unit_width=unit_width, rules=cnfet_rules)
    cmos = cmos_cell_area(gate, unit_width=unit_width, rules=cmos_rules)
    return CellAreaGain(
        gate_name="INV",
        scheme=scheme,
        cnfet_area=cnfet.area,
        cmos_area=cmos.area,
    )


def cell_area_gain(
    gate_name: str,
    unit_width: float = 4.0,
    drive_strength: float = 1.0,
    scheme: int = 1,
    cnfet_rules: DesignRules = CNFET_RULES,
    cmos_rules: DesignRules = CMOS_RULES,
) -> CellAreaGain:
    """CNFET-vs-CMOS area gain of an arbitrary library cell."""
    gate = standard_gate(gate_name)
    cnfet = assemble_cell(gate, technique="compact", scheme=scheme,
                          unit_width=unit_width, drive_strength=drive_strength,
                          rules=cnfet_rules)
    cmos = cmos_cell_area(gate, unit_width=unit_width,
                          drive_strength=drive_strength, rules=cmos_rules)
    return CellAreaGain(
        gate_name=gate_name,
        scheme=scheme,
        cnfet_area=cnfet.area,
        cmos_area=cmos.area,
    )
