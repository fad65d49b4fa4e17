"""The service API boundary: submission documents in, typed jobs out.

A *submission* is the JSON body of one ``POST /jobs`` — the same three
invocation shapes the CLI and manifest runner already understand:

* a **study** — ``{"study": "fig3", "params": {"unit_width": 6}}``
* a **sweep** — ``{"study": "sweep", "engine": "immunity",
  "axes": {"cnts_per_trial": [2, 4]}, "mode": "grid",
  "params": {"trials": 100, "seed": 7}}``
* a **manifest** — ``{"studies": [entry, entry, ...]}`` (each entry a
  study/sweep object as above)

Each study/sweep object is parsed by
:meth:`~repro.runtime.manifest.ManifestEntry.from_mapping`, the one
validator of ``repro batch``/``sweep``/``circuit`` too, so whatever they
reject is an HTTP 400 at submit time, before a worker runs anything.

**Fingerprints are execution-blind at the API boundary too.**  The body
may carry top-level ``jobs``/``backend`` overrides (how the engines
should execute), but :meth:`JobSubmission.fingerprint` is computed from
the *work* alone, through the same
:func:`~repro.runtime.fingerprint.study_fingerprint` /
:func:`~repro.runtime.fingerprint.sweep_fingerprint` addresses the cache
uses.  Two clients POSTing the same study with different worker counts
collapse onto one job — the RPL004 contract, extended to HTTP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ReproError
from ..runtime.manifest import ManifestEntry, run_manifest
from ..runtime.scheduler import BACKENDS
from ..study.results import StudyResult
from ..study.serialize import canonical_json
from .errors import InvalidSubmission

#: Submission kinds, in increasing compositeness.
KINDS = ("study", "sweep", "manifest")


def _validate_execution(jobs: Any, backend: Any) -> Tuple[Optional[int],
                                                          Optional[str]]:
    """Normalise the body's optional execution overrides."""
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise InvalidSubmission(
                f"'jobs' must be an integer worker count, got {jobs!r}"
            )
    if backend is not None and backend not in BACKENDS:
        raise InvalidSubmission(
            f"Unknown backend {backend!r}; use one of {BACKENDS}"
        )
    return jobs, backend


@dataclass(frozen=True)
class JobSubmission:
    """One validated unit of service work, ready to fingerprint and run.

    ``entries`` holds the parsed invocation(s) — exactly one for study
    and sweep submissions, one per manifest line otherwise.
    ``jobs``/``backend`` are the body's optional execution overrides —
    applied when the job runs, invisible to :meth:`fingerprint`.
    """

    kind: str
    entries: Tuple[ManifestEntry, ...]
    jobs: Optional[int] = None
    backend: Optional[str] = None

    @classmethod
    def from_document(cls, document: Any) -> "JobSubmission":
        """Parse and validate one ``POST /jobs`` body.

        Raises :class:`~repro.service.errors.InvalidSubmission` (HTTP
        400) on anything that cannot become a job, with the underlying
        validator's message preserved.
        """
        if not isinstance(document, Mapping):
            raise InvalidSubmission(
                "A submission is a JSON object "
                "({'study': ...} or {'studies': [...]}), "
                f"got {type(document).__name__}"
            )
        body = dict(document)
        jobs, backend = _validate_execution(
            body.pop("jobs", None), body.pop("backend", None)
        )
        manifest = "studies" in body
        if manifest:
            documents = body.pop("studies")
            if body:
                raise InvalidSubmission(
                    f"Manifest submissions take only 'studies' (plus "
                    f"'jobs'/'backend'); unknown keys {sorted(body)}"
                )
            if not isinstance(documents, (list, tuple)) or not documents:
                raise InvalidSubmission(
                    "'studies' must be a non-empty list of study/sweep "
                    "entries"
                )
        else:
            documents = [body]
        try:
            entries = tuple(ManifestEntry.from_mapping(entry, index)
                            for index, entry in enumerate(documents))
        except ReproError as error:
            raise InvalidSubmission(str(error)) from error
        kind = ("manifest" if manifest
                else "sweep" if entries[0].is_sweep else "study")
        return cls(kind=kind, entries=entries, jobs=jobs, backend=backend)

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """The content address of this submission's *work*.

        Study and sweep submissions reuse the runtime layer's study/sweep
        fingerprints verbatim — a service job and a ``repro run``/``repro
        sweep`` of the same invocation share one cache entry.  Manifest
        submissions hash the ordered list of their entries' fingerprints.
        Execution overrides (``jobs``/``backend``) never participate.
        """
        keys = [entry.key() for entry in self.entries]
        if self.kind != "manifest":
            return keys[0]
        text = canonical_json({"kind": "manifest", "entries": keys})
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def deterministic(self) -> bool:
        """Whether identical submissions are interchangeable.  An entry
        with an explicit ``"seed": null`` asks for fresh OS entropy, so
        such a submission must neither dedup nor attach — mirroring the
        manifest runner's bypass."""
        return all(entry.deterministic for entry in self.entries)

    @property
    def study(self) -> str:
        """The display label: the canonical study name, ``"sweep"``, or
        ``"manifest"``."""
        if self.kind == "manifest":
            return "manifest"
        return self.entries[0].study

    def total_corners(self) -> Optional[int]:
        """How many sweep corners this submission expands to (the job's
        progress denominator), or ``None`` when corners are not the unit
        of work."""
        return sum(len(entry.spec)
                   for entry in self.entries if entry.is_sweep) or None

    # -- execution -------------------------------------------------------------

    def run(self, cache=None, jobs: Optional[int] = None,
            backend: Optional[str] = None) -> StudyResult:
        """Execute the submission through the registry / sweep driver /
        manifest runner.  The body's own ``jobs``/``backend`` win over
        the service defaults passed in."""
        effective_jobs = self.jobs if self.jobs is not None else jobs
        effective_backend = self.backend if self.backend is not None \
            else backend
        if self.kind == "manifest":
            return run_manifest(self.entries, cache=cache,
                                jobs=effective_jobs,
                                backend=effective_backend)
        return self.entries[0].run(cache, effective_jobs, effective_backend)

    def describe(self) -> Dict[str, Any]:
        """The submission's face in job documents."""
        return {
            "kind": self.kind,
            "study": self.study,
            "entries": len(self.entries),
            "deterministic": self.deterministic,
        }


__all__ = ["KINDS", "JobSubmission"]
