"""Show that every check of the benchmark's oracle can fail.

Each check is fed the outputs recorded at the reference commit (which
the benchmark's own runs reproduce with drift 0) against a perturbed
reference, and must count a failure; the unperturbed reference must
pass.  The service's reply checks run against a real ``repro serve``.

    python3 perfbench/selftest.py

Exits 0 when every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import service_mix as mix  # noqa: E402
from layers import STUDIES  # noqa: E402
from oracle import DRIFT_TOLERANCE, envelope_bytes, load_json  # noqa: E402

REFERENCE = run.REFERENCE
WORKDIR = run.WORK / "selftest"


def _leaves(value: Any, path: Tuple = ()) -> Iterator[Tuple[Tuple, Any]]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path, value


def _set(document: Any, path: Tuple, value: Any) -> Any:
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def _perturbed(value: Any) -> Any:
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.5 + 1
    if isinstance(value, str):
        return value + " (perturbed)"
    return "perturbed"


def _first_of_each_kind(document: Any) -> List[Tuple[Tuple, Any]]:
    """The first bool, number, string and null leaf of a document."""
    seen, chosen = set(), []
    for path, value in _leaves(document):
        kind = type(value).__name__ if not isinstance(value, bool) else "bool"
        if kind not in seen:
            seen.add(kind)
            chosen.append((path, value))
    return chosen


def _reference_copy(name: str) -> Path:
    target = WORKDIR / name
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(REFERENCE, target)
    return target


def _failed(check: Callable[[run.Tally], None]) -> Tuple[int, float]:
    tally = run.Tally()
    check(tally)
    return tally.failed, tally.drift


class Report:
    def __init__(self) -> None:
        self.missed: List[str] = []
        self.cases = 0

    def expect(self, label: str, failed: int, should_fail: bool) -> None:
        self.cases += 1
        if bool(failed) != should_fail:
            self.missed.append(label)
            print(f"MISSED  {label}: failed={failed}")


def paper_cold(report: Report) -> None:
    outputs = {study: load_json(REFERENCE / "paper_cold" / f"{study}.json")
               for study in STUDIES}
    record = {"outputs": outputs, "errors": []}
    report.expect("paper_cold as recorded", _failed(
        lambda tally: run._check_paper_cold(record, REFERENCE, tally))[0],
        False)
    for study in STUDIES:
        for path, value in _first_of_each_kind(outputs[study]):
            reference = _reference_copy("paper_cold")
            target = reference / "paper_cold" / f"{study}.json"
            target.write_text(json.dumps(
                _set(outputs[study], path, _perturbed(value))))
            report.expect(f"paper_cold {study}{list(path)}", _failed(
                lambda tally: run._check_paper_cold(record, reference,
                                                    tally))[0], True)
    # A drift inside the tolerance is measured but not a failure.
    path, value = next((path, value) for path, value in
                       _leaves(outputs["circuit"])
                       if isinstance(value, float) and value)
    reference = _reference_copy("paper_cold")
    (reference / "paper_cold" / "circuit.json").write_text(json.dumps(
        _set(outputs["circuit"], path, value * (1 + DRIFT_TOLERANCE / 2))))
    failed, drift = _failed(
        lambda tally: run._check_paper_cold(record, reference, tally))
    report.expect("paper_cold drift within tolerance", failed, False)
    report.expect("paper_cold drift is measured", int(drift > 0), True)


def claims(report: Report) -> None:
    outputs = {study: load_json(REFERENCE / "paper_cold" / f"{study}.json")
               for study in STUDIES}
    grid = load_json(REFERENCE / "immunity_grid" / "seed-2009.json")
    records = {
        "paper_cold": {"outputs": outputs, "errors": []},
        "immunity_grid": {"outputs": {"sweep_seed": 2009, "records": grid},
                          "errors": []},
    }
    for key, value in load_json(REFERENCE / "claims.json").items():
        reference = _reference_copy("claims")
        perturbed = (not value if isinstance(value, bool)
                     else value + 0.05 if key == "fig3_saving" else 0.0)
        (reference / "claims.json").write_text(json.dumps(
            dict(load_json(REFERENCE / "claims.json"), **{key: perturbed})))
        workload = "immunity_grid" if key.startswith("grid_") \
            else "paper_cold"
        report.expect(f"claim {key}", _failed(
            lambda tally: run.CHECKS[workload](records[workload], reference,
                                               tally))[0], True)


def immunity_grid(report: Report) -> None:
    grid = load_json(REFERENCE / "immunity_grid" / "seed-2009.json")
    record = {"outputs": {"sweep_seed": 2009, "records": grid}, "errors": []}
    report.expect("immunity_grid as recorded", _failed(
        lambda tally: run._check_immunity_grid(record, REFERENCE, tally))[0],
        False)
    index = next(index for index, corner in enumerate(grid)
                 if corner["failures"])
    for field in ("failures", "trials"):
        reference = _reference_copy("immunity_grid")
        perturbed = copy.deepcopy(grid)
        perturbed[index][field] = int(perturbed[index][field] * 1.5) + 1
        (reference / "immunity_grid" / "seed-2009.json").write_text(
            json.dumps(perturbed))
        report.expect(f"immunity_grid corner[{index}].{field}", _failed(
            lambda tally: run._check_immunity_grid(record, reference,
                                                   tally))[0], True)


def service(report: Report) -> None:
    from repro.service.api import JobSubmission

    body = b'{"study": "fig3"}'
    document = json.loads(envelope_bytes(
        JobSubmission.from_document(json.loads(body)).run().to_json_dict()))
    served = dict(document, provenance=dict(document["provenance"],
                                            cache="miss"))
    outcome = mix.Outcome(mix.JobSpec("repeat", body), ok=True,
                          job_id="job-000001", envelope=envelope_bytes(served))

    def check(reference: Path, in_process: dict) -> int:
        return _failed(lambda tally: run._check_service(
            [outcome], reference, tally, in_process))[0]

    report.expect("service as served", check(REFERENCE, {}), False)
    reference = _reference_copy("service")
    fig3 = load_json(REFERENCE / "paper_cold" / "fig3.json")
    (reference / "paper_cold" / "fig3.json").write_text(json.dumps(
        _set(fig3, ("payload", "compact_area"), 400.0)))
    report.expect("service payload vs paper_cold reference",
                  check(reference, {}), True)
    report.expect("service envelope vs in-process run", check(
        REFERENCE, {body: _set(document, ("payload", "baseline_area"),
                               377.0)}), True)

    # Replies: a refused valid body and an accepted malformed one both
    # count as failures.
    server = mix.Server(WORKDIR / "cache", traced=False)
    try:
        conn = server.connect()
        for label, spec in (
                ("service malformed body", mix.JobSpec("repeat",
                                                       b'{"study": 1}')),
                ("service accepted malformed", mix.JobSpec("malformed",
                                                           body))):
            outcome = mix._run_job(conn, spec)
            conn.close()
            report.expect(label, int(not outcome.ok), True)
    finally:
        server.stop()


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    report = Report()
    try:
        for section in (paper_cold, claims, immunity_grid, service):
            section(report)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{report.cases - len(report.missed)}/{report.cases} oracle "
          "cases behaved as expected")
    return 1 if report.missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
