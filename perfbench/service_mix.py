"""The ``service_mix`` workload: a ``repro serve`` subprocess under a
closed loop of two keep-alive clients.

Each client submits a job, polls it every :data:`POLL_INTERVAL_S` until
it is terminal and fetches ``/result``; only then does it take the next
job.  Jobs come in rounds of :data:`ROUND_MIX`, generated from the
workload seed, and a round ends when both clients have finished its
jobs.  Rounds repeat until the run's seconds are spent or
:data:`MAX_ROUNDS` have run.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Sizing for a 2-core machine: two client threads against two server
#: workers, each job's engines serial (``--jobs 1``).
CLIENTS = 2
SERVER_WORKERS = 2

#: Seconds a client sleeps between two ``GET /jobs/<id>`` polls.
POLL_INTERVAL_S = 0.005
#: A job not terminal after this long counts as hung (failed).
JOB_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 30.0

#: One round: 8 hot repeats, 8 prefix-growth sweeps, 3 fresh-seed
#: sweeps, 1 malformed body (40/40/15/5 %).
ROUND_MIX = (("repeat", 8), ("prefix", 8), ("fresh", 3), ("malformed", 1))
MAX_ROUNDS = 12

#: Cheap studies (no transient kernel) whose repeats dedup.
HOT_STUDIES = ("table1", "fig3", "fig4", "fig7", "pitch", "edp")
GATES = ("NAND2", "NAND3", "AOI31")
TECHNIQUES = ["vulnerable", "baseline", "compact"]
#: A prefix family grows ``cnts_per_trial = 1..k`` up to this k.
PREFIX_MAX = 8
PREFIX_TRIALS = 200
FRESH_CNTS = [2, 4, 8]
FRESH_TRIALS = 500

#: Bodies the service must refuse with a 4xx.
MALFORMED_BODIES = (
    b"{\"study\": \"fig3\"",
    b"[\"fig3\"]",
    b"{\"study\": \"no_such_study\"}",
    b"{\"study\": \"fig3\", \"bogus\": 1}",
    b"{\"study\": \"sweep\", \"engine\": \"warp\", "
    b"\"axes\": {\"cnts_per_trial\": [1]}}",
)


@dataclass(frozen=True)
class JobSpec:
    kind: str           # repeat | prefix | fresh | malformed
    body: bytes

    @property
    def valid(self) -> bool:
        return self.kind != "malformed"


class MixGenerator:
    """The seeded job stream: one :meth:`round` at a time."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._family_seed = self._rng.randrange(1, 10 ** 6)
        self._family = 0
        self._k = 0
        self._fresh = self._rng.randrange(10 ** 6, 10 ** 9)
        self._malformed = 0

    def _prefix(self) -> Dict[str, Any]:
        # Corner seeds are positional, so only a growing cnts prefix of
        # one gate at one seed reuses the corners already stored.
        if self._k == PREFIX_MAX:
            self._family += 1
            self._k = 0
        self._k += 1
        return {"study": "sweep", "engine": "immunity", "mode": "grid",
                "axes": {"gate": [GATES[self._family % len(GATES)]],
                         "technique": TECHNIQUES,
                         "cnts_per_trial": list(range(1, self._k + 1))},
                "params": {"trials": PREFIX_TRIALS,
                           "seed": self._family_seed + self._family}}

    def _fresh_sweep(self) -> Dict[str, Any]:
        # Gates cycle so every seed puts the same work in the tail.
        self._fresh += 1
        return {"study": "sweep", "engine": "immunity", "mode": "grid",
                "axes": {"gate": [GATES[self._fresh % len(GATES)]],
                         "technique": TECHNIQUES,
                         "cnts_per_trial": FRESH_CNTS},
                "params": {"trials": FRESH_TRIALS, "seed": self._fresh}}

    def round(self) -> List[JobSpec]:
        kinds = [kind for kind, count in ROUND_MIX for _ in range(count)]
        self._rng.shuffle(kinds)
        # Bodies are made in slot order, so prefix jobs keep growing.
        jobs = []
        for kind in kinds:
            if kind == "malformed":
                body = MALFORMED_BODIES[self._malformed
                                        % len(MALFORMED_BODIES)]
                self._malformed += 1
            else:
                document = ({"study": self._rng.choice(HOT_STUDIES)}
                            if kind == "repeat" else self._prefix()
                            if kind == "prefix" else self._fresh_sweep())
                body = json.dumps(document).encode("utf-8")
            jobs.append(JobSpec(kind, body))
        return jobs


# -- the server -------------------------------------------------------------

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, traced: bool):
        launcher = ([str(HERE / "traced_serve.py")] if traced
                    else ["-m", "repro"])
        command = [sys.executable, *launcher, "serve", "--host", "127.0.0.1",
                   "--port", "0", "--workers", str(SERVER_WORKERS),
                   "--jobs", "1", "--cache", str(cache_dir)]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        banner = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = start + 60.0
        while True:
            conn = self.connect()
            try:
                if request(conn, "GET", "/health")[0] == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=HTTP_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


# -- the closed loop --------------------------------------------------------

@dataclass
class Outcome:
    spec: JobSpec
    started: float = 0.0          # perf_counter at submit
    latency_s: float = 0.0
    requests: int = 0
    status: int = 0
    ok: bool = False
    job_id: Optional[str] = None
    deduplicated: bool = False
    envelope: Optional[bytes] = None
    error: str = ""


def _run_job(conn: http.client.HTTPConnection, spec: JobSpec) -> Outcome:
    start = time.perf_counter()
    outcome = Outcome(spec, started=start)
    try:
        outcome.status, raw = request(conn, "POST", "/jobs", spec.body)
        outcome.requests += 1
        if not spec.valid:
            outcome.ok = 400 <= outcome.status < 500
            if not outcome.ok:
                outcome.error = f"malformed body got HTTP {outcome.status}"
            return outcome
        if outcome.status not in (200, 201):
            outcome.error = f"submit got HTTP {outcome.status}: {raw[:200]!r}"
            return outcome
        document = json.loads(raw)
        outcome.job_id = document["id"]
        outcome.deduplicated = bool(document.get("deduplicated"))
        deadline = start + JOB_TIMEOUT_S
        while document["status"] in ("queued", "running"):
            if time.perf_counter() > deadline:
                outcome.error = "job hung"
                return outcome
            time.sleep(POLL_INTERVAL_S)
            status, raw = request(conn, "GET", f"/jobs/{outcome.job_id}")
            outcome.requests += 1
            document = json.loads(raw)
        if document["status"] != "done":
            outcome.error = f"job {document['status']}: {document['error']}"
            return outcome
        status, raw = request(conn, "GET", f"/jobs/{outcome.job_id}/result")
        outcome.requests += 1
        if status != 200:
            outcome.error = f"result got HTTP {status}"
            return outcome
        outcome.envelope = raw
        outcome.ok = True
        return outcome
    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    finally:
        outcome.latency_s = time.perf_counter() - start


@dataclass
class LoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    origin: float = field(default_factory=time.perf_counter)
    wall_origin: float = field(default_factory=time.time)
    duration_s: float = 0.0


def closed_loop(server: Server, seed: int, seconds: float) -> LoopResult:
    """Run rounds of the seeded mix until ``seconds`` or MAX_ROUNDS."""
    mix = MixGenerator(seed)
    result = LoopResult()
    work: "queue.Queue[JobSpec]" = queue.Queue()
    lock = threading.Lock()
    start_round = threading.Barrier(CLIENTS + 1, timeout=JOB_TIMEOUT_S * 4)
    end_round = threading.Barrier(CLIENTS + 1, timeout=JOB_TIMEOUT_S * 4)
    stop = threading.Event()

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                start_round.wait()
                if stop.is_set():
                    return
                while True:
                    try:
                        spec = work.get_nowait()
                    except queue.Empty:
                        break
                    outcome = _run_job(conn, spec)
                    if not outcome.ok:
                        conn.close()     # the next request reconnects
                    with lock:
                        result.outcomes.append(outcome)
                end_round.wait()
        except threading.BrokenBarrierError:
            return
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(MAX_ROUNDS):
            for spec in mix.round():
                work.put(spec)
            begin = time.perf_counter()
            start_round.wait()
            end_round.wait()
            result.round_s.append(time.perf_counter() - begin)
            if time.perf_counter() - result.origin >= seconds:
                break
        stop.set()
        start_round.wait()
    except threading.BrokenBarrierError:
        stop.set()
        start_round.abort()
        end_round.abort()
    for thread in threads:
        thread.join(JOB_TIMEOUT_S * 4)
    result.duration_s = time.perf_counter() - result.origin
    return result


def server_metrics(server: Server) -> Dict[str, Any]:
    conn = server.connect()
    try:
        status, raw = request(conn, "GET", "/metrics")
    finally:
        conn.close()
    return json.loads(raw) if status == 200 else {}


def queue_wait_ms(metrics: Dict[str, Any]) -> float:
    histogram = metrics.get("metrics", {}).get("histograms", {}).get(
        "service.queue_latency_s", {})
    count = histogram.get("count", 0)
    return 1e3 * histogram.get("sum", 0.0) / count if count else 0.0


def job_traces(server: Server, job_ids: List[str]) -> Dict[str, Dict]:
    """Each job's ``repro-trace/v1`` document from ``/jobs/<id>/trace``."""
    traces = {}
    conn = server.connect()
    try:
        for job_id in job_ids:
            status, raw = request(conn, "GET", f"/jobs/{job_id}/trace")
            if status == 200:
                traces[job_id] = json.loads(raw)
    finally:
        conn.close()
    return traces


def merged_trace(loop: LoopResult, traces: Dict[str, Dict],
                 metrics: Dict[str, Any], attributes: Dict[str, Any]
                 ) -> Dict[str, Any]:
    """One ``repro-trace/v1`` document for a traced service pass: a
    ``client.job`` span per job, each server job trace grafted under the
    client span that created the job."""
    spans: List[Dict[str, Any]] = []
    creator: Dict[str, int] = {}
    for outcome in sorted(loop.outcomes, key=lambda outcome: outcome.started):
        span_id = len(spans)
        spans.append({
            "id": span_id, "parent": -1, "name": "client.job",
            "start_s": outcome.started - loop.origin,
            "duration_s": outcome.latency_s,
            "attributes": {"kind": outcome.spec.kind,
                           "valid": outcome.spec.valid,
                           "ok": outcome.ok, "http_status": outcome.status,
                           "job": outcome.job_id,
                           "deduplicated": outcome.deduplicated},
            "counters": {"requests": float(outcome.requests)},
            "events": [],
        })
        if outcome.job_id and not outcome.deduplicated:
            creator.setdefault(outcome.job_id, span_id)
    for job_id, document in traces.items():
        if job_id not in creator:
            continue
        offset = len(spans)
        shift = float(document["wall_start_s"]) - loop.wall_origin
        for record in document["spans"]:
            parent = record["parent"]
            spans.append(dict(
                record, id=record["id"] + offset,
                parent=creator[job_id] if parent < 0 else parent + offset,
                start_s=float(record["start_s"]) + shift))
    return {
        "schema": "repro-trace/v1",
        "name": "perfbench:service_mix",
        "attributes": attributes,
        "wall_start_s": loop.wall_origin,
        "duration_s": loop.duration_s,
        "spans": spans,
        "metrics": metrics.get("metrics", {"counters": {}, "histograms": {}}),
    }


def mix_shares(outcomes: List[Outcome]) -> Dict[str, float]:
    """The measured share of each input property among the jobs sent."""
    total = len(outcomes) or 1
    return {f"mix.{kind}_share":
            sum(outcome.spec.kind == kind for outcome in outcomes) / total
            for kind, _ in ROUND_MIX}
