"""Every paper number of :mod:`repro.paper` against a fresh run, and the
``repro verify`` verb that prints them."""

import dataclasses
import io
import math
from pathlib import Path

import pytest

from repro import paper
from repro.study.cli import main

PAPER_MD = Path(__file__).resolve().parent.parent / "PAPER.md"


@pytest.fixture(scope="module")
def outcomes():
    return {row.id: (measured, holds)
            for row, measured, holds in paper.verify()}


class TestAnchorTable:
    @pytest.mark.parametrize("row", paper.ANCHORS, ids=lambda row: row.id)
    def test_anchor_holds(self, row, outcomes):
        measured, holds = outcomes[row.id]
        assert holds, paper.format_outcome(row, measured, holds)

    def test_ids_are_unique(self):
        ids = [row.id for row in paper.ANCHORS]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("check, bound, rel, measured, holds", [
        ("≈", 0.02, False, 0.219, True),
        ("≈", 0.02, False, 0.221, False),
        ("≈", 0.10, True, 0.219, True),
        ("≈", 0.10, True, 0.2201, False),
        ("==", 0.0, False, 0.2, True),
        ("==", 0.0, False, 0.2000001, False),
        (">", 0.2, False, 0.2, False),
        (">=", 0.2, False, 0.2, True),
        ("<", 0.2, False, 0.2, False),
        ("≈", 0.02, False, math.nan, False),
        (">", 0.0, False, math.nan, False),
    ])
    def test_checks(self, check, bound, rel, measured, holds):
        row = paper.Anchor("probe", "probe", 0.2, check, bound, "fig3",
                           lambda result: result, rel=rel)
        assert row.holds(measured) is holds

    def test_verify_exits_0_with_one_line_per_row(self):
        out, err = io.StringIO(), io.StringIO()
        assert main(["verify"], stdout=out, stderr=err) == 0
        lines = out.getvalue().splitlines()
        assert [line.split()[0] for line in lines] == [
            row.id for row in paper.ANCHORS]
        assert all(line.endswith(" ok") for line in lines)
        assert "0 MISS" in err.getvalue()

    def test_verify_names_the_missed_row(self, monkeypatch):
        """Moving one row's paper value out of reach makes ``verify`` exit 1
        and name that row — the check can fail."""
        row = paper.anchor("fig3.nand3_saving_4l")
        moved = dataclasses.replace(row, paper=row.paper + 0.05)
        monkeypatch.setattr(paper, "ANCHORS",
                            (paper.anchor("fig4.etched_regions"), moved))
        out, err = io.StringIO(), io.StringIO()
        assert main(["verify"], stdout=out, stderr=err) == 1
        missed = [line for line in out.getvalue().splitlines()
                  if line.endswith("MISS")]
        assert [line.split()[0] for line in missed] == ["fig3.nand3_saving_4l"]
        assert "fig3.nand3_saving_4l" in err.getvalue()

    def test_paper_md_lists_every_row(self):
        text = PAPER_MD.read_text(encoding="utf-8")
        missing = [row.id for row in paper.ANCHORS if row.id not in text]
        assert not missing, missing
