"""One invocation type behind every entry surface.

``repro sweep``, ``repro circuit``, ``repro batch`` and ``POST /jobs``
all parse into :class:`~repro.runtime.manifest.ManifestEntry` through
its one validator, so they accept and reject the same bodies and give
an accepted body the same content address:

* **parity** — the manifest parser and the service parser agree on
  accept/reject and, for accepted bodies, on the fingerprint, over one
  table of valid and invalid bodies;
* **early rejection** — an unknown study or engine parameter, or a
  ``seed``/``trials`` given to the unseeded transient engine, is a typed
  error at parse time on every surface: ``repro batch`` runs no entry,
  ``repro sweep`` exits 2 and ``POST /jobs`` answers 400;
* **circuit-engine sweeps** reach the service like any other sweep;
* **one circuit path** — ``repro circuit`` and ``run_study("circuit")``
  both get the whole-result envelope and per-cell corner reuse.
"""

from __future__ import annotations

import functools
import http.client
import io
import json
import threading

import pytest

import repro.analysis.experiments as experiments
from repro.errors import ReproError
from repro.runtime.cache import ResultCache
from repro.runtime.fingerprint import sweep_fingerprint
from repro.runtime.manifest import ManifestEntry, run_manifest
from repro.service import InvalidSubmission, JobSubmission, ReproService
from repro.study import SweepSpec
from repro.study.cli import main as cli_main
from repro.study.registry import run_study

#: A tiny circuit-engine sweep: one 1-bit adder corner.
CIRCUIT_SWEEP = {
    "study": "sweep", "engine": "circuit",
    "axes": {"circuit": ["adder:1"]},
    "params": {"trials": 4, "draws": 8},
}

TRANSIENT_SWEEP = {"study": "sweep", "engine": "transient",
                   "axes": {"vdd": [0.9, 1.0]}, "params": {"cell": "NAND2"}}

#: ``(body, valid)`` — every body both parsers see.
BODIES = [
    ({"study": "fig3"}, True),
    ({"study": "nand3", "params": {"unit_width": 6.0}}, True),
    ({"study": "fig2", "params": {"trials": 10, "seed": 7}}, True),
    ({"study": "fig2", "params": {"seed": None}}, True),
    ({"study": "sweep", "engine": "immunity", "mode": "zip",
      "axes": {"cnts_per_trial": [2, 4], "technique": ["compact", "baseline"]},
      "params": {"trials": 10, "seed": 7, "gate": "NAND3"}}, True),
    ({"study": "sweep", "axes": {"cnts_per_trial": [2]}}, True),
    (TRANSIENT_SWEEP, True),
    (CIRCUIT_SWEEP, True),
    (dict(TRANSIENT_SWEEP, params={"cell": "NAND2", "seed": 3}), False),
    (dict(TRANSIENT_SWEEP, params={"trials": 7}), False),
    ({"study": "fig3", "params": {"bogus": 1}}, False),
    ({"study": "circuit", "params": {"cache": True}}, False),
    ({"study": "sweep", "engine": "immunity",
      "axes": {"cnts_per_trial": [2]}, "params": {"bogus": 1}}, False),
    ({"study": "sweep", "axes": {"bogus": [1]}}, False),
    ({"study": "sweep", "engine": "warp",
      "axes": {"cnts_per_trial": [1]}}, False),
    ({"study": "sweep", "engine": ["immunity"],
      "axes": {"cnts_per_trial": [1]}}, False),
    ({"study": "fig3", "bogus": 1}, False),
    ({"study": "no_such_study"}, False),
]
BODY_IDS = [
    "study", "alias", "seeded_study", "fresh_entropy", "immunity_zip",
    "default_engine", "transient", "circuit_engine", "transient_seed",
    "transient_trials", "unknown_param", "cache_param", "unknown_fixed",
    "unknown_axis", "warp_engine", "unhashable_engine", "unknown_key",
    "unknown_study",
]

#: The bodies every surface must refuse before running anything.
REJECTED = [
    {"study": "fig3", "params": {"bogus": 1}},
    dict(TRANSIENT_SWEEP, params={"cell": "NAND2", "seed": 3}),
    dict(TRANSIENT_SWEEP, params={"cell": "NAND2", "trials": 7}),
]
REJECTED_IDS = ["unknown_param", "transient_seed", "transient_trials"]


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def fig3_calls(monkeypatch):
    """Count fig3 runner invocations (the registry resolves runners at
    call time, so the patch reaches every surface)."""
    real = experiments.run_fig3_nand3
    calls = []

    @functools.wraps(real)
    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_fig3_nand3", counting)
    return calls


class TestParity:
    @pytest.mark.parametrize("body, valid", BODIES, ids=BODY_IDS)
    def test_manifest_and_service_parsers_agree(self, body, valid):
        try:
            entry = ManifestEntry.from_mapping(body)
        except ReproError:
            entry = None
        try:
            submission = JobSubmission.from_document(body)
        except InvalidSubmission:
            submission = None
        assert (entry is not None) is valid
        assert (submission is not None) is valid
        if valid:
            assert submission.fingerprint() == entry.key()
            assert submission.deterministic == entry.deterministic

    def test_aliases_parse_to_the_canonical_study(self):
        entry = ManifestEntry.from_mapping({"study": "NAND3"})
        assert entry.study == "fig3"
        assert entry.key() == ManifestEntry.from_mapping(
            {"study": "fig3"}).key()

    def test_spelled_out_sweep_defaults_keep_the_address(self):
        """Omitting trials/seed is the same work as spelling out the
        driver's defaults, so it has the same address."""
        bare = ManifestEntry.from_mapping(
            {"study": "sweep", "axes": {"cnts_per_trial": [2]}})
        spelled = ManifestEntry.from_mapping(
            {"study": "sweep", "engine": "immunity",
             "axes": {"cnts_per_trial": [2]},
             "params": {"trials": 200, "seed": 2009}})
        assert bare.key() == spelled.key()


class TestEarlyRejection:
    @pytest.mark.parametrize("bad", REJECTED, ids=REJECTED_IDS)
    def test_manifest_rejects_before_running_any_entry(self, bad,
                                                       fig3_calls):
        with pytest.raises(ReproError):
            run_manifest([{"study": "fig3"}, bad])
        assert fig3_calls == []

    @pytest.mark.parametrize("bad", REJECTED, ids=REJECTED_IDS)
    def test_batch_exits_2_before_running_any_entry(self, bad, tmp_path,
                                                    fig3_calls):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"study": "fig3"}, bad]))
        code, out, err = run_cli("batch", str(manifest))
        assert code == 2
        assert err.startswith("error: ") and out == ""
        assert fig3_calls == []

    @pytest.mark.parametrize("flag", ["seed=3", "trials=7"])
    def test_sweep_rejects_seed_and_trials_given_as_fixed_values(self, flag):
        code, _, err = run_cli("sweep", "--engine", "transient",
                               "--axis", "vdd=0.9,1.0", "--set", flag)
        assert code == 2
        assert "takes no --seed/--trials" in err

    def test_sweep_rejects_an_unknown_fixed_value(self):
        code, _, err = run_cli("sweep", "--engine", "immunity",
                               "--axis", "cnts_per_trial=2",
                               "--set", "bogus=1")
        assert code == 2
        assert "does not understand fixed parameters ['bogus']" in err

    def test_service_answers_400_at_submit_time(self, tmp_path):
        service = ReproService(port=0, cache=tmp_path / "cache", workers=1)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = service.server_address[:2]
            for body in REJECTED:
                connection = http.client.HTTPConnection(host, port,
                                                        timeout=30)
                try:
                    connection.request("POST", "/jobs", json.dumps(body),
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    document = json.loads(response.read())
                finally:
                    connection.close()
                assert response.status == 400, body
                assert document["error"]["type"] == "InvalidSubmission"
            assert service.manager.documents() == []
        finally:
            service.close()


class TestCircuitEngineThroughTheService:
    def test_circuit_sweep_submission_matches_the_manifest_run(self):
        submission = JobSubmission.from_document(CIRCUIT_SWEEP)
        assert submission.kind == "sweep"
        assert submission.total_corners() == 1
        spec = SweepSpec.from_mapping({"circuit": ("adder:1",)})
        assert submission.fingerprint() == sweep_fingerprint(
            spec, "circuit", 4, 2009, {"draws": 8})
        served = submission.run(cache=None, jobs=1)
        batch = run_manifest([CIRCUIT_SWEEP])
        assert batch.outcomes[0].fingerprint == submission.fingerprint()
        assert served == batch.results[0]
        assert served.to_json_dict()["payload"] == \
            batch.results[0].to_json_dict()["payload"]


class TestOneCircuitPath:
    FAST = dict(circuit="adder:1", trials=8, seed=7, draws=16)

    def test_run_study_hands_the_store_to_the_runner(self, tmp_path):
        """``run_study("circuit")`` stores the envelope *and* the per-cell
        corners, so different work over the same cells reuses them."""
        store = ResultCache(tmp_path / "store")
        cold = run_study("circuit", cache=store, **self.FAST)
        assert cold.provenance.cache == "miss"
        stats = store.stats()
        assert stats.entries == 1 and stats.corner_entries > 0
        more_draws = run_study("circuit", cache=store,
                               **dict(self.FAST, draws=32))
        assert more_draws.provenance.cache == "hit"   # every cell reused
        assert store.stats().entries == 2
        assert store.stats().corner_entries == stats.corner_entries

    def test_repro_circuit_stores_the_envelope(self, tmp_path):
        store = tmp_path / "store"
        argv = ("circuit", "--generate", "adder:1", "--trials", "8",
                "--seed", "7", "--param", "draws=16", "--cache", str(store),
                "--json", "-")
        code, cold, err = run_cli(*argv)
        assert code == 0 and "cache miss" in err
        assert ResultCache(store).stats().entries == 1
        code, warm, err = run_cli(*argv)
        assert code == 0 and "cache hit" in err
        assert json.loads(warm)["payload"] == json.loads(cold)["payload"]
        direct = run_study("circuit", cache=store, **self.FAST)
        assert direct.provenance.cache == "hit"
