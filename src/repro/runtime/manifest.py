"""The batch/manifest runner: many studies, one cache, zero rework.

A *manifest* is a JSON list of study invocations::

    [
      {"study": "fig3", "params": {"unit_width": 6}},
      {"study": "fig2", "params": {"trials": 100, "seed": 7}},
      {"study": "sweep", "engine": "immunity", "mode": "grid",
       "axes": {"cnts_per_trial": [2, 4]},
       "params": {"trials": 100, "seed": 7}}
    ]

(the top level may also be ``{"studies": [...]}``).  Every entry is
parsed by :meth:`ManifestEntry.from_mapping`, the validator all entry
surfaces share, before the first one runs.  Plain entries run through
:func:`~repro.study.registry.run_study`, ``"study": "sweep"`` entries
through :func:`~repro.study.sweeps.run_sweep_study`.

:func:`run_manifest` executes the list in order and deduplicates work
across entries by :mod:`~repro.runtime.fingerprint`: a repeated
invocation — identical study, parameters and seed, however many entries
apart — reuses the in-process result (``dedup``), and with a ``cache``
attached every computed result also lands in the content-addressed
store, so a re-run of the whole manifest (or any other manifest sharing
entries) is pure cache hits.  Sweep entries additionally dedup at
**corner** granularity through the persistent corner store: two sweep
entries whose grids merely *overlap* share the overlapping corners'
results, and the later entry reports ``partial:<hits>/<corners>`` while
executing only its genuinely new corners (see
:func:`~repro.study.sweeps.run_sweep_study`).  ``jobs`` fans each
parallelizable entry out through the runtime scheduler.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import RuntimeLayerError, StudyError
from ..study.registry import get_study, run_study
from ..study.results import Provenance, StudyResult
from ..study.spec import SweepSpec
from ..study.sweeps import (SWEEP_SEED, SWEEP_TRIALS, run_sweep_study,
                            sweep_engine)
from .cache import CacheLike, as_cache
from .fingerprint import study_fingerprint, sweep_fingerprint

ManifestSource = Union[str, os.PathLike, Sequence[Any], Mapping[str, Any]]


@dataclass(frozen=True)
class ManifestEntry:
    """One validated study or sweep invocation: what ``repro sweep``,
    ``repro circuit``, each ``repro batch`` line and every ``POST /jobs``
    body parse into.  ``study`` is the canonical study name or
    ``"sweep"``; a sweep's ``params`` are its engine's fixed values."""

    study: str
    params: Dict[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None                 # sweep entries only
    spec: Optional[SweepSpec] = None
    trials: int = SWEEP_TRIALS
    seed: Any = SWEEP_SEED

    @property
    def is_sweep(self) -> bool:
        return self.study == "sweep"

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any],
                     index: int = 0) -> "ManifestEntry":
        """The one invocation validator.  A malformed shape is a
        :class:`~repro.errors.RuntimeLayerError`; an unknown study,
        engine, axis or parameter, or a ``seed``/``trials`` for an
        unseeded engine, the :class:`~repro.errors.StudyError` running
        it would raise — before anything runs."""
        if not isinstance(data, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index} must be an object, "
                f"got {type(data).__name__}"
            )
        study = data.get("study")
        if not isinstance(study, str) or not study:
            raise RuntimeLayerError(
                f"Manifest entry {index} needs a 'study' name"
            )
        known = {"study", "params", "engine", "axes", "mode"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RuntimeLayerError(
                f"Manifest entry {index} has unknown keys {unknown}; "
                f"allowed: {sorted(known)}"
            )
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index}: 'params' must be an object"
            )
        params = dict(params)
        axes = data.get("axes")
        if study != "sweep":
            if axes is not None or "engine" in data:
                raise RuntimeLayerError(
                    f"Manifest entry {index}: 'axes'/'engine' only apply "
                    f"to \"study\": \"sweep\" entries"
                )
            definition = get_study(study)
            definition.check_params(params)
            return cls(study=definition.name, params=params)
        if not axes or not isinstance(axes, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index}: a sweep needs a non-empty 'axes' "
                "object"
            )
        spec = SweepSpec.from_mapping(
            {name: values if isinstance(values, (list, tuple)) else (values,)
             for name, values in axes.items()},
            mode=data.get("mode", "grid"),
        )
        engine = data.get("engine") or "immunity"
        seeded = {name: params.pop(name) for name in ("trials", "seed")
                  if name in params}
        if seeded and sweep_engine(engine).seeds is None:
            raise StudyError(
                f"Engine {engine!r} takes no --seed/--trials (no "
                f"{sorted(seeded)} params): it is unseeded and deterministic"
            )
        sweep_engine(engine, spec.axis_names, params)
        return cls(study="sweep", params=params, engine=engine, spec=spec,
                   **seeded)

    def key(self) -> str:
        """The content address the cache files this invocation under."""
        if self.is_sweep:
            return sweep_fingerprint(self.spec, self.engine, self.trials,
                                     self.seed, self.params)
        return study_fingerprint(self.study, params=self.params)

    @property
    def deterministic(self) -> bool:
        """False for an explicit ``"seed": null`` (fresh OS entropy): such
        a run neither dedups nor caches."""
        if self.is_sweep:
            return self.seed is not None
        return self.params.get("seed", 0) is not None

    def run(self, cache=None, jobs: Optional[int] = None,
            backend: Optional[str] = None) -> StudyResult:
        """Execute the invocation; a study's runner gets ``jobs`` and
        ``backend`` only if it declares ``workers``/``backend``."""
        if self.is_sweep:
            return run_sweep_study(
                self.spec, engine=self.engine, trials=self.trials,
                seed=self.seed, jobs=jobs, backend=backend, cache=cache,
                **self.params,
            )
        params = dict(self.params)
        accepted = get_study(self.study).parameters()
        if backend is not None and "backend" in accepted:
            params.setdefault("backend", backend)
        return run_study(self.study, cache=cache,
                         jobs=jobs if "workers" in accepted else None,
                         **params)


@dataclass(frozen=True)
class ManifestOutcome:
    """How one entry was satisfied: computed, cache hit, or deduplicated
    against an earlier entry of the same manifest run."""

    index: int
    study: str
    fingerprint: str
    status: str    # "computed" | "hit" | "miss" | "partial:<h>/<n>" | "dedup"


@dataclass(frozen=True)
class ManifestResult(StudyResult):
    """The typed outcome of :func:`run_manifest`.

    ``results`` holds the live per-entry :class:`StudyResult` objects in
    manifest order (excluded from serialization and equality, like the
    full-adder study's flow artifacts); the serialized payload carries
    the outcomes and counts.
    """

    study_name: ClassVar[str] = "manifest"

    outcomes: Tuple[ManifestOutcome, ...] = ()
    results: Optional[Tuple[StudyResult, ...]] = field(
        default=None, compare=False, repr=False,
        metadata={"serialize": False},
    )

    def count(self, status: str) -> int:
        """Outcomes matching ``status`` exactly, or — for parameterised
        statuses like the sweep driver's ``"partial:<hits>/<corners>"`` —
        by their prefix (``count("partial")``)."""
        return sum(
            1 for outcome in self.outcomes
            if outcome.status == status
            or outcome.status.startswith(status + ":")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            **super().to_dict(),
            "entries": len(self.outcomes),
            "computed": self.count("computed"),
            "hits": self.count("hit"),
            "misses": self.count("miss"),
            "partial": self.count("partial"),
            "deduped": self.count("dedup"),
        }

    def __str__(self) -> str:
        width = max([len("study")] + [len(o.study) for o in self.outcomes])
        header = f"{'#':>3} {'study':<{width}} {'status':<8} fingerprint"
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.index:>3} {outcome.study:<{width}} "
                f"{outcome.status:<8} {outcome.fingerprint[:16]}"
            )
        lines.append(
            f"{len(self.outcomes)} entries: {self.count('computed')} computed, "
            f"{self.count('miss')} misses, {self.count('hit')} hits, "
            f"{self.count('partial')} partial, {self.count('dedup')} deduped"
        )
        return "\n".join(lines)


def _load_entries(source: ManifestSource) -> List[ManifestEntry]:
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as stream:
                document = json.load(stream)
        except OSError as error:
            raise RuntimeLayerError(
                f"Cannot read manifest {source}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise RuntimeLayerError(
                f"Manifest {source} is not valid JSON: {error}"
            ) from error
    else:
        document = source
    if isinstance(document, Mapping):
        document = document.get("studies")
    if not isinstance(document, Sequence) or isinstance(document, (str, bytes)):
        raise RuntimeLayerError(
            "A manifest is a JSON list of study entries "
            "(or {\"studies\": [...]})"
        )
    if not document:
        raise RuntimeLayerError("Manifest has no entries")
    return [entry if isinstance(entry, ManifestEntry)
            else ManifestEntry.from_mapping(entry, index)
            for index, entry in enumerate(document)]


def run_manifest(source: ManifestSource, cache: CacheLike = None,
                 jobs: Optional[int] = None,
                 backend: Optional[str] = None) -> ManifestResult:
    """Execute a manifest of studies with cross-study dedup.

    ``source`` is a path to a manifest JSON file, or the already-loaded
    list / ``{"studies": [...]}`` mapping; list items may be parsed
    :class:`ManifestEntry` objects.  Every entry is validated before the
    first one runs.  Entries run in order; an
    entry whose fingerprint matched an earlier one reuses that result
    without re-running anything (``dedup``), and with ``cache`` attached
    each unique invocation is a ``miss`` (computed, stored) or ``hit``
    (loaded).  Without a cache, unique entries report ``computed``.
    """
    entries = _load_entries(source)
    store = as_cache(cache)
    memo: Dict[str, StudyResult] = {}
    outcomes: List[ManifestOutcome] = []
    results: List[StudyResult] = []
    for index, entry in enumerate(entries):
        key = entry.key()
        if entry.deterministic and key in memo:
            result = memo[key]
            status = "dedup"
        else:
            result = entry.run(store, jobs, backend)
            if entry.deterministic:
                memo[key] = result
            status = result.provenance.cache or "computed"
        outcomes.append(ManifestOutcome(
            index=index, study=entry.study, fingerprint=key, status=status,
        ))
        results.append(result)
    return ManifestResult(
        provenance=Provenance.capture(
            "manifest",
            params={"entries": len(entries)},
        ),
        outcomes=tuple(outcomes),
        results=tuple(results),
    )


__all__ = [
    "ManifestEntry",
    "ManifestOutcome",
    "ManifestResult",
    "run_manifest",
]
