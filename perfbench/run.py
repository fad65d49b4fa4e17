"""The repo benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload paper_cold --seed 1 \
        --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` every per-layer metric, derived from a traced run's
``repro-trace/v1`` document (written under ``.perfbench/traces/``).  The
last line of standard output is the JSON result.  See README.md for the
workloads, the metrics and the oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

#: Set-up is timed at least this many times per run (median reported).
SETUP_SAMPLES = 7
SERVICE_SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170.0


class Tally:
    """Attempted/failed ops and the largest drift from the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.drift = 0.0
        self.problems: List[str] = []
        #: Service results equal in content and canonical bytes but sent
        #: with another key order than the in-process envelope.
        self.wire_order_mismatches = 0

    def op(self, problems: List[str], drift: float = 0.0) -> None:
        from oracle import finite

        self.attempted += 1
        self.drift = max(self.drift, finite(drift))
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# -- in-process workloads ---------------------------------------------------

def _spawn(args: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a worker; returns it and its spawn-to-``ready`` seconds."""
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                *args], cwd=str(ROOT), stdout=subprocess.PIPE,
                               text=True)
    ready, _, _ = select.select([process.stdout], [], [], PASS_TIMEOUT_S)
    line = process.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"worker {args} never became ready")
    return process, setup


def _pass(workload: str, seed: int, traced: bool, index: int
          ) -> Dict[str, Any]:
    out = WORK / f"{workload}-{seed}-{index}.json"
    trace_out = WORK / f"{workload}-{seed}-{index}.trace.json"
    process, setup = _spawn(["--workload", workload, "--seed", str(seed),
                             "--trace", str(int(traced)), "--out", str(out),
                             "--trace-out", str(trace_out)])
    try:
        code = process.wait(timeout=PASS_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0:
        raise RuntimeError(f"{workload} pass exited with {code}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["setup_s"] = setup
    if traced:
        record["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
    return record


def _ready_probe() -> float:
    process, setup = _spawn(["--ready-only"])
    process.wait(timeout=PASS_TIMEOUT_S)
    process.stdout.close()
    return setup


def _check_paper_cold(record: Dict[str, Any], reference: Path,
                      tally: Tally) -> None:
    from layers import STUDIES
    from oracle import check_claims, compare, load_json

    outputs = record["outputs"]
    claims = check_claims(outputs, load_json(reference / "claims.json"))
    for study in STUDIES:
        errors = [error for error in record["errors"]
                  if error.startswith(f"{study}:")]
        if study not in outputs:
            tally.op(errors or [f"{study}: no output"])
            continue
        drift, problems = compare(
            outputs[study],
            load_json(reference / "paper_cold" / f"{study}.json"),
            path=study)
        tally.op(errors + problems + [claim for claim in claims
                                      if claim.startswith(f"{study}:")],
                 drift)


def _check_immunity_grid(record: Dict[str, Any], reference: Path,
                         tally: Tally) -> None:
    from oracle import check_grid_claims, compare, load_json
    from worker import GRID_AXES

    outputs = record["outputs"]
    if "records" not in outputs:
        corners = math.prod(len(values) for values in GRID_AXES.values())
        for _ in range(corners):
            tally.op(record["errors"] or ["immunity_grid: no output"])
        return
    expected = load_json(reference / "immunity_grid"
                         / f"seed-{outputs['sweep_seed']}.json")
    claims = load_json(reference / "claims.json")
    if len(outputs["records"]) != len(expected):
        tally.op([f"immunity_grid: {len(outputs['records'])} corners, "
                  f"expected {len(expected)}"])
    for index, (seen, want) in enumerate(zip(outputs["records"], expected)):
        drift, problems = compare(seen, want, path=f"corner[{index}]")
        tally.op(problems + check_grid_claims([seen], claims), drift)


CHECKS = {"paper_cold": _check_paper_cold,
          "immunity_grid": _check_immunity_grid}


def run_in_process(workload: str, seed: int, seconds: float,
                   trace: bool) -> Dict[str, Any]:
    """Fresh-process passes until ``seconds`` are spent (at least one).
    Traced runs pair each untraced pass with a traced one."""
    passes: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        passes.append(_pass(workload, seed, False, len(passes) + len(traced)))
        if trace:
            traced.append(_pass(workload, seed, True,
                                len(passes) + len(traced)))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = [record["setup_s"] for record in passes + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_ready_probe())

    tally = Tally()
    for record in passes + traced:
        CHECKS[workload](record, REFERENCE, tally)
    walls = [record["wall_s"] for record in passes]
    result = {
        "tally": tally,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            # The pass is the one request a user of this workload makes.
            "job_p50_ms": 1e3 * statistics.median(walls),
            "peak_rss_mb": statistics.median(
                [record["peak_rss_mb"] for record in passes]),
        },
        "samples": {"passes": len(passes), "setups": len(setups)},
        "notes": {},
    }
    if trace:
        documents = []
        for plain, record in zip(passes, traced):
            document = record["trace"]
            document["attributes"]["untraced_wall_s"] = plain["wall_s"]
            documents.append(document)
        result["traces"] = documents
    return result


# -- service_mix ------------------------------------------------------------

def _service_pass(seed: int, seconds: float, traced: bool, name: str
                  ) -> Dict[str, Any]:
    import service_mix as mix

    server = mix.Server(WORK / f"cache-{name}", traced=traced)
    try:
        loop = mix.closed_loop(server, seed, seconds)
        metrics = mix.server_metrics(server)
        rss = server.peak_rss_mb()
        traces = {}
        if traced:
            traces = mix.job_traces(server, sorted({
                outcome.job_id for outcome in loop.outcomes
                if outcome.job_id and not outcome.deduplicated}))
    finally:
        server.stop()
    return {"loop": loop, "metrics": metrics, "rss": rss, "traces": traces,
            "setup_s": server.setup_s}


def _check_service(outcomes, reference: Path, tally: Tally,
                   in_process: Dict[bytes, Dict[str, Any]]) -> None:
    """Every job against its expected reply; every result envelope
    against the in-process run of the same body (memoised in
    ``in_process``, untimed)."""
    from oracle import (compare, envelope_bytes, load_json,
                        service_envelope_matches)
    from repro.service.api import JobSubmission

    for outcome in outcomes:
        if not outcome.ok:
            tally.op([f"{outcome.spec.kind} job: {outcome.error}"])
            continue
        if not outcome.spec.valid:
            tally.op([])
            continue
        body = outcome.spec.body
        if body not in in_process:
            submission = JobSubmission.from_document(json.loads(body))
            in_process[body] = json.loads(envelope_bytes(
                submission.run(cache=None, jobs=1).to_json_dict()))
        expected = in_process[body]
        served = json.loads(outcome.envelope)
        served.pop("provenance", None)
        if outcome.spec.kind == "repeat":
            expected_payload = load_json(
                reference / "paper_cold" / f"{served['study']}.json")
        else:
            expected_payload = dict(expected)
            expected_payload.pop("provenance")
        drift, problems = compare(served, expected_payload,
                                  path=outcome.spec.kind)
        canonical, raw = service_envelope_matches(outcome.envelope, expected)
        if not canonical:
            problems.append(f"{outcome.job_id}: /result differs from the "
                            "in-process envelope")
        tally.wire_order_mismatches += canonical and not raw
        tally.op(problems, drift)


def run_service(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import service_mix as mix

    setups = []
    for probe in range(SERVICE_SETUP_SAMPLES - (2 if trace else 1)):
        server = mix.Server(WORK / f"cache-probe-{probe}", traced=False)
        try:
            setups.append(server.setup_s)
        finally:
            server.stop()
    plain = _service_pass(seed, seconds, False, "plain")
    setups.append(plain["setup_s"])
    runs = [plain]
    if trace:
        # The traced pass replays the same seeded job stream.
        runs.append(_service_pass(seed, seconds, True, "traced"))
        setups.append(runs[-1]["setup_s"])

    tally = Tally()
    in_process: Dict[bytes, Dict[str, Any]] = {}
    oracle_start = time.perf_counter()
    for run in runs:
        _check_service(run["loop"].outcomes, REFERENCE, tally, in_process)
    oracle_s = time.perf_counter() - oracle_start

    outcomes = plain["loop"].outcomes
    latency = [1e3 * outcome.latency_s for outcome in outcomes
               if outcome.spec.valid]
    counters = plain["metrics"].get("metrics", {}).get("counters", {})
    valid = sum(outcome.spec.valid for outcome in outcomes)
    notes = {
        **mix.mix_shares(outcomes),
        "dedup_ratio": sum(outcome.deduplicated for outcome in outcomes)
        / max(valid, 1),
        "corner_hit_ratio": counters.get("sweep.corners_cached", 0.0)
        / max(counters.get("sweep.corners_planned", 0.0), 1.0),
        "job_p95_ms": statistics.quantiles(latency, n=100,
                                           method="inclusive")[94],
        "wire_order_mismatches": tally.wire_order_mismatches,
        "oracle_s": oracle_s,
        "rounds": len(plain["loop"].round_s),
    }
    result = {
        "tally": tally,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain["loop"].round_s),
            "job_p50_ms": statistics.median(latency),
            "peak_rss_mb": plain["rss"],
        },
        "samples": {"jobs": len(latency), "setups": len(setups)},
        "notes": notes,
    }
    if trace:
        run = runs[1]
        loop = run["loop"]
        attributes = {
            "workload": "service_mix", "seed": seed,
            "wall_s": statistics.median(loop.round_s),
            "untraced_wall_s": statistics.median(plain["loop"].round_s),
            "service.submissions": len(loop.outcomes),
            "service.valid_submissions": sum(
                outcome.spec.valid for outcome in loop.outcomes),
            "service.deduplicated": sum(outcome.deduplicated
                                        for outcome in loop.outcomes),
            "service.rejected_4xx": sum(
                400 <= outcome.status < 500 for outcome in loop.outcomes),
            "service.queue_wait_ms": mix.queue_wait_ms(run["metrics"]),
            "service.worker_utilization": run["metrics"].get(
                "worker_utilization", 0.0),
            **mix.mix_shares(loop.outcomes),
        }
        result["traces"] = [mix.merged_trace(loop, run["traces"],
                                             run["metrics"], attributes)]
    return result


# -- entry point ------------------------------------------------------------

def _declared() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _emit(result: Dict[str, Any], trace: bool, workload: str,
          seed: int) -> Dict[str, Any]:
    """Print the human-readable report; return the metrics object."""
    from layers import layer_metrics, layer_table
    from oracle import DRIFT_TOLERANCE
    from repro.obs.trace import write_trace

    declared = _declared()
    tally: Tally = result["tally"]
    failed_ratio = tally.failed / max(tally.attempted, 1)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for key, value in result["samples"].items():
        print(f"  samples.{key} = {value}")
    units = {item["name"]: item["unit"] for item in declared["end_to_end"]}
    for name, value in result["end_to_end"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  attempted = {tally.attempted}  failed = {tally.failed}  "
          f"failed_ratio = {failed_ratio:.6g}")
    print(f"  result_drift = {tally.drift:.6g} "
          f"(tolerance {DRIFT_TOLERANCE})")
    for key, value in result["notes"].items():
        print(f"  {key} = {value:.6g}")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")

    if not trace:
        return {name: {"value": value, "unit": units[name]}
                for name, value in result["end_to_end"].items()}

    per_pass = [layer_metrics(document) for document in result["traces"]]
    (WORK / "traces").mkdir(exist_ok=True)
    path = write_trace(result["traces"][-1],
                       WORK / "traces" / f"{workload}-seed{seed}.json")
    print(f"  trace document: {path.relative_to(ROOT)}")
    print("  layer                 spans      self_s")
    for layer, spans, seconds in layer_table(result["traces"][-1]):
        print(f"  {layer:<20} {spans:6d} {seconds:11.4f}")
    metrics = {}
    for item in declared["per_layer"]:
        name = item["name"]
        if name == "failed_ratio":
            value = failed_ratio
        elif name == "result_drift":
            value = tally.drift
        else:
            value = statistics.median([values[name] for values in per_pass])
        metrics[name] = {"value": value, "unit": item["unit"]}
        print(f"  {name} = {value:.6g} {item['unit']}")
    return metrics


def _steal_s() -> float:
    """CPU time the host took from this machine so far (all CPUs)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _clear_work() -> None:
    """Remove the work files of a run (traces stay)."""
    for path in WORK.iterdir():
        if path.name != "traces":
            shutil.rmtree(path) if path.is_dir() else path.unlink()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cold", "immunity_grid", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its servers and workers (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers are stopped with SIGINT; a parent that ignores it (as a
    # shell does for background jobs) would pass the ignore on to them.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    _clear_work()
    steal = _steal_s()
    try:
        if args.workload == "service_mix":
            result = run_service(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_in_process(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        # Time stolen by the host inflates every timing of this run.
        result["notes"]["host_steal_s"] = _steal_s() - steal
        metrics = _emit(result, bool(args.trace), args.workload, args.seed)
    finally:
        _clear_work()
    tally = result["tally"]
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
