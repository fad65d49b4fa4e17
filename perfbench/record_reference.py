"""Re-record the oracle's reference outputs under ``reference/``.

Run only when results are meant to change (and say so in the change):

    python3 perfbench/record_reference.py

Writes every ``paper_cold`` study payload (provenance stripped) and the
``immunity_grid`` per-corner failure counts for each sweep seed in
``worker.GRID_SWEEP_SEEDS``.  ``reference/claims.json`` holds the
paper's claims and is edited by hand, never recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402


def _write(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main() -> int:
    reference = HERE / "reference"
    outputs, errors = {}, []
    worker._paper_cold(0, outputs, errors)
    for index, sweep_seed in enumerate(worker.GRID_SWEEP_SEEDS):
        grid = {}
        worker._immunity_grid(index, grid, errors)
        _write(reference / "immunity_grid" / f"seed-{sweep_seed}.json",
               grid["records"])
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    for study, payload in outputs.items():
        _write(reference / "paper_cold" / f"{study}.json", payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
