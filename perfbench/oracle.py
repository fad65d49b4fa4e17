"""The benchmark's correctness oracle.

Three kinds of check, each a pure function of (observed, reference) so
``selftest.py`` can feed it a perturbed reference and watch it fail:

* :func:`compare` — a study payload (provenance stripped) against the
  payload recorded at the reference commit.  Numbers may drift by at
  most :data:`DRIFT_TOLERANCE` (relative); anything else must match
  exactly.  Numbers printed inside text tables are compared as numbers,
  allowing for the digits the table rounds away.
* :func:`check_claims` — the paper-claim flags, with the expected values
  read from ``reference/claims.json``.
* :func:`service_envelope_matches` — the service's contract: a job's
  ``/result`` envelope equals the in-process run of the same body, byte
  for byte in the ``repro run --json`` form.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Largest relative change of any numeric output that still counts as
#: correct.  At the reference commit every drift is exactly 0; a later
#: numerical change to the kernel may move results by design, within this.
DRIFT_TOLERANCE = 0.02

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def load_json(path: Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def payload_of(result) -> Dict[str, Any]:
    """A study result's JSON envelope without its provenance block."""
    document = json.loads(result.to_json())
    document.pop("provenance", None)
    return document


def _relative(a: float, b: float, slack: float = 0.0) -> float:
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    gap = max(abs(a - b) - slack, 0.0)
    scale = max(abs(a), abs(b))
    return gap / scale if scale else 0.0


def _text_drift(observed: str, expected: str, path: str,
                problems: List[str]) -> float:
    if observed == expected:
        return 0.0
    if _NUMBER.split(observed) != _NUMBER.split(expected):
        problems.append(f"{path}: text differs")
        return math.inf
    drift = 0.0
    for seen, want in zip(_NUMBER.findall(observed),
                          _NUMBER.findall(expected)):
        digits = want.split("e")[0].split("E")[0]
        decimals = len(digits.split(".")[1]) if "." in digits else 0
        # One unit in the last printed digit is rounding, not drift.
        drift = max(drift, _relative(float(seen), float(want),
                                     slack=10.0 ** -decimals))
    return drift


def compare(observed: Any, expected: Any, path: str = "$",
            problems: List[str] = None) -> Tuple[float, List[str]]:
    """``(max relative drift, problems)`` of ``observed`` vs ``expected``.

    A problem is a structural or non-numeric mismatch, or a numeric drift
    above :data:`DRIFT_TOLERANCE`.
    """
    problems = [] if problems is None else problems
    drift = 0.0
    if isinstance(expected, bool) or isinstance(observed, bool):
        if observed is not expected:
            problems.append(f"{path}: {observed!r} != {expected!r}")
    elif isinstance(expected, (int, float)) and isinstance(observed,
                                                           (int, float)):
        drift = _relative(float(observed), float(expected))
        if drift > DRIFT_TOLERANCE:
            problems.append(f"{path}: {observed!r} drifted {drift:.3g} "
                            f"from {expected!r}")
    elif isinstance(expected, str) and isinstance(observed, str):
        drift = _text_drift(observed, expected, path, problems)
        if math.isfinite(drift) and drift > DRIFT_TOLERANCE:
            problems.append(f"{path}: text numbers drifted {drift:.3g}")
    elif isinstance(expected, dict) and isinstance(observed, dict):
        if sorted(observed) != sorted(expected):
            problems.append(f"{path}: keys {sorted(observed)} != "
                            f"{sorted(expected)}")
        for key in expected:
            if key in observed:
                drift = max(drift, compare(observed[key], expected[key],
                                           f"{path}.{key}", problems)[0])
    elif isinstance(expected, list) and isinstance(observed, list):
        if len(observed) != len(expected):
            problems.append(f"{path}: length {len(observed)} != "
                            f"{len(expected)}")
        for index, (seen, want) in enumerate(zip(observed, expected)):
            drift = max(drift, compare(seen, want, f"{path}[{index}]",
                                       problems)[0])
    elif observed != expected:
        problems.append(f"{path}: {observed!r} != {expected!r}")
    return drift, problems


def finite(value: float) -> float:
    """A drift that stays printable: structural mismatches read as 1."""
    return value if math.isfinite(value) else 1.0


# -- paper claims -----------------------------------------------------------

def check_claims(payloads: Dict[str, Any],
                 claims: Dict[str, Any]) -> List[str]:
    """Problems with the paper-claim flags of the ``paper_cold`` studies
    (an empty list when every claim holds)."""
    problems = []
    fig2 = payloads.get("fig2", {}).get("payload", {})
    if fig2.get("compact_immune") is not claims["fig2_compact_immune"]:
        problems.append("fig2: compact layout is not immune")
    characterization = payloads.get("characterization", {}).get("payload", {})
    for flag in ("monotone_in_load", "faster_at_higher_drive"):
        expected = claims[f"characterization_{flag}"]
        if characterization.get(flag) is not expected:
            problems.append(f"characterization: {flag} does not hold")
    fig3 = payloads.get("fig3", {}).get("payload", {})
    saving = fig3.get("measured_saving")
    if saving is None or abs(saving - claims["fig3_saving"]) \
            > claims["fig3_saving_tolerance"]:
        problems.append(f"fig3: saving {saving!r} is not "
                        f"{claims['fig3_saving']} ± "
                        f"{claims['fig3_saving_tolerance']}")
    return problems


def check_grid_claims(records: List[Dict[str, Any]],
                      claims: Dict[str, Any]) -> List[str]:
    """The compact layout is immune at ``metallic_fraction=0`` on every
    gate and defect count of the ``immunity_grid`` sweep."""
    problems = []
    for record in records:
        corner = record["corner"]
        if corner["technique"] == "compact" \
                and corner["metallic_fraction"] == 0.0 \
                and (record["failures"] == 0) is not \
                claims["grid_compact_immune_at_zero_metallic"]:
            problems.append(f"immunity_grid: compact not immune at {corner}")
    return problems


# -- service ----------------------------------------------------------------

def envelope_bytes(document: Dict[str, Any]) -> bytes:
    """A result envelope as ``GET /jobs/<id>/result`` serialises it."""
    return (json.dumps(document, indent=2, sort_keys=False) + "\n").encode(
        "utf-8")


def canonical_bytes(document: Dict[str, Any]) -> bytes:
    """A result envelope as ``repro run --json`` writes it
    (:meth:`~repro.study.results.StudyResult.to_json`)."""
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


def service_envelope_matches(served: bytes, in_process: Dict[str, Any]
                             ) -> Tuple[bool, bool]:
    """``(canonical, raw)``: whether the service's ``/result`` equals the
    in-process envelope of the same body, once the in-process run is
    given the cache status the service reported (the one field a cache
    may change).

    ``canonical`` compares the ``repro run --json`` bytes of both, which
    is the service's documented contract; ``raw`` compares the bytes as
    sent, whose key order can follow where a corner's metrics came from.
    """
    try:
        document = json.loads(served)
        status = document["provenance"]["cache"]
    except (ValueError, KeyError, TypeError):
        return False, False
    expected = json.loads(json.dumps(in_process))
    expected["provenance"]["cache"] = status
    return (canonical_bytes(document) == canonical_bytes(expected),
            served == envelope_bytes(expected))
