"""The content-addressed on-disk result store.

Two granularities share one store root:

* **Study entries** — one serialized
  :class:`~repro.study.results.StudyResult` envelope filed under the
  :mod:`~repro.runtime.fingerprint` of the invocation that produced it.
* **Corner entries** — one tagged-JSON metrics payload per evaluated
  sweep corner, filed under its
  :func:`~repro.runtime.fingerprint.corner_fingerprint`.  These are what
  make sweep re-runs *incremental*: extending an axis only recomputes
  the corners whose addresses are absent
  (:func:`~repro.study.sweeps.run_sweep_study`).

::

    <root>/
      objects/<key[:2]>/<key>.json     one study entry per fingerprint
      corners/<key[:2]>/<key>.json     one corner envelope per fingerprint

Entry files wrap their payload in a small integrity document
(``repro-cache-entry/v1`` / ``repro-corner-entry/v1``) carrying the
fingerprint and a SHA-256 digest of the canonical payload text.  Reads
re-validate both; anything that fails — truncated JSON, digest mismatch,
foreign fingerprint — is treated as a miss, counted as *corrupt*, and
evicted, so a damaged store degrades to recomputation instead of wrong
answers.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
concurrent writers and readers — the scheduler's whole point — never
observe half an entry.

The store itself keeps no counters: :meth:`ResultCache.stats` scans what
is on disk, and hits, misses, corrupt reads, puts and evictions go to
the process metrics registry and the active trace span (``cache.hits``,
``cache.corner_misses``, ...) — per process, so any number of processes
can share one store without losing a count.

The default store location is ``.repro-cache/`` under the current
directory; the ``REPRO_CACHE_DIR`` environment variable or an explicit
``root`` overrides it (CLI: ``--cache DIR`` / ``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, Optional, Sequence, Tuple,
                    Union)

from ..errors import CacheError
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..study.results import StudyResult
from ..study.serialize import decode, encode

#: Version tag of the on-disk cache entry wrapper.
CACHE_SCHEMA = "repro-cache-entry/v1"

#: Version tag of the on-disk per-corner envelope wrapper.
CORNER_SCHEMA = "repro-corner-entry/v1"

#: Environment variable naming the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Store location used when neither an explicit root nor the environment
#: variable names one.
DEFAULT_CACHE_DIR = ".repro-cache"

CacheLike = Union[None, bool, str, os.PathLike, "ResultCache"]


@dataclass(frozen=True)
class _Granularity:
    """How one kind of entry is filed, wrapped, decoded and counted."""

    tree: str                       # directory under the store root
    schema: str                     # the wrapper's schema tag
    body: str                       # the wrapper field holding the payload
    counter: str                    # counter-name prefix after ``cache.``
    kind: str                       # label in eviction events and errors
    decode: Callable[[Any], Any]    # validated body -> stored value


_STUDY = _Granularity("objects", CACHE_SCHEMA, "result", "", "study",
                      StudyResult.from_json_dict)
_CORNER = _Granularity("corners", CORNER_SCHEMA, "payload", "corner_",
                       "corner", decode)


def _count(**deltas: int) -> None:
    """Add nonzero counter deltas to the process metrics registry and the
    active trace span (if any), as ``cache.<name>``."""
    for name, value in deltas.items():
        if value:
            obs_metrics.registry().inc(f"cache.{name}", value)
            obs_trace.add(f"cache.{name}", value)


@dataclass(frozen=True)
class CacheStats:
    """What one scan of a cache store finds: entry counts and bytes of
    both granularities, plus study entries per study."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_study: Dict[str, int] = field(default_factory=dict)
    corner_entries: int = 0
    corner_bytes: int = 0

    def __str__(self) -> str:
        lines = [
            f"cache root   : {self.root}",
            f"entries      : {self.entries}",
            f"total bytes  : {self.total_bytes}",
        ]
        for study in sorted(self.by_study):
            lines.append(f"  {study:<12}: {self.by_study[study]}")
        lines += [
            f"corner entries : {self.corner_entries}",
            f"corner bytes   : {self.corner_bytes}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _canonical_envelope_text(envelope: Dict[str, Any]) -> str:
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def _envelope_digest(envelope: Dict[str, Any]) -> str:
    return hashlib.sha256(
        _canonical_envelope_text(envelope).encode("utf-8")
    ).hexdigest()


def with_cache_status(result: StudyResult, status: str) -> StudyResult:
    """A copy of ``result`` whose provenance records ``status`` ("hit" or
    "miss").  The ``cache`` provenance field is excluded from equality,
    so a warm-cache copy still compares equal to the cold-run original —
    the bit-identity contract survives annotation."""
    provenance = dataclasses.replace(result.provenance, cache=status)
    return dataclasses.replace(result, provenance=provenance)


class ResultCache:
    """A content-addressed store of typed study results.

    >>> import tempfile
    >>> from repro.study.results import Fig3Result, Provenance
    >>> root = tempfile.mkdtemp()
    >>> cache = ResultCache(root)
    >>> result = Fig3Result(provenance=Provenance.capture("fig3"),
    ...                     baseline_area=288.0)
    >>> cache.get("0" * 64) is None      # cold store: a miss
    True
    >>> _ = cache.put("0" * 64, result)
    >>> cache.get("0" * 64) == result    # warm store: the same result
    True
    >>> cache.stats().entries
    1
    """

    def __init__(self, root: Union[None, str, os.PathLike] = None):
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)

    # -- paths -----------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where the study entry for ``key`` lives (whether or not it
        exists)."""
        return self._path(_STUDY, key)

    def _path(self, granularity: _Granularity, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"Malformed cache key {key!r}")
        return self.root / granularity.tree / key[:2] / f"{key}.json"

    def _tree_entries(self, granularity: _Granularity) -> Iterator[Path]:
        tree = self.root / granularity.tree
        if not tree.is_dir():
            return
        for shard in sorted(tree.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    # -- atomic file primitive -------------------------------------------------

    def _write_atomic(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    # -- the one read path and the one write path ------------------------------

    def _load(self, granularity: _Granularity, path: Path,
              key: str) -> Tuple[Optional[Any], bool]:
        """``(body, corrupt)``: the validated wrapper body, or
        ``(None, False)`` for absent and ``(None, True)`` for damaged."""
        try:
            with open(path, "r", encoding="utf-8") as stream:
                wrapper = json.load(stream)
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError):
            return None, True
        if not isinstance(wrapper, dict):
            return None, True
        body = wrapper.get(granularity.body)
        if (wrapper.get("schema") != granularity.schema
                or wrapper.get("fingerprint") != key
                or body is None
                or wrapper.get("sha256") != _envelope_digest(body)):
            return None, True
        return body, False

    def _read(self, granularity: _Granularity,
              keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: value}`` for every key whose entry validated and
        decoded.  Damaged entries — including a digest-valid body that no
        longer decodes (a result class reshaped without a version bump, a
        hand-edited store) — are evicted and count as corrupt and missed;
        a repeated key counts again without a second read."""
        found: Dict[str, Any] = {}
        missing: set = set()
        hits = misses = corrupt = 0
        for key in keys:
            if key in found:
                hits += 1
                continue
            if key in missing:
                misses += 1
                continue
            path = self._path(granularity, key)
            body, damaged = self._load(granularity, path, key)
            value = None
            if body is not None:
                try:
                    value = granularity.decode(body)
                except Exception:
                    damaged = True
            if value is not None:
                found[key] = value
                hits += 1
                continue
            misses += 1
            missing.add(key)
            if damaged:
                corrupt += 1
                obs_trace.event("cache.evict", key=key,
                                kind=granularity.kind)
                obs_metrics.registry().inc("cache.evictions")
                try:
                    path.unlink()
                except OSError:
                    pass
        prefix = granularity.counter
        _count(**{f"{prefix}hits": hits, f"{prefix}misses": misses,
                  f"{prefix}corrupt": corrupt})
        return found

    def _write(self, granularity: _Granularity, key: str, body: Any,
               **fields: Any) -> Path:
        """Wrap ``body`` with its schema tag, fingerprint and digest (plus
        ``fields``) and persist it atomically; returns the entry path."""
        wrapper = {
            "schema": granularity.schema,
            "fingerprint": key,
            "sha256": _envelope_digest(body),
            "created": obs_clock.wall_time(),
            granularity.body: body,
            **fields,
        }
        path = self._path(granularity, key)
        try:
            self._write_atomic(path, json.dumps(wrapper, sort_keys=True))
        except OSError as error:
            raise CacheError(
                f"Cannot write {granularity.kind} entry {path}: {error}"
            ) from error
        _count(**{f"{granularity.counter}puts": 1})
        return path

    # -- the store API ---------------------------------------------------------

    def get(self, key: str) -> Optional[StudyResult]:
        """The stored result for ``key``, or ``None`` (a miss).

        Integrity is re-validated on every read; corrupt entries are
        evicted and count as both *corrupt* and a miss.
        """
        return self._read(_STUDY, (key,)).get(key)

    def put(self, key: str, result: StudyResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the entry
        path.  Counts a put, not a hit or miss — pair it with the
        :meth:`get` miss that preceded it."""
        return self._write(_STUDY, key, result.to_json_dict(),
                           study=type(result).study_name)

    def get_corners(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: metrics}`` for every corner fingerprint in ``keys``
        whose envelope validated, with the same integrity discipline as
        :meth:`get` (counted as ``cache.corner_*``)."""
        return self._read(_CORNER, keys)

    def put_corner(self, key: str, metrics: Any,
                   engine: str = "") -> Path:
        """Persist one corner's metrics payload under its fingerprint
        atomically; returns the entry path."""
        return self._write(_CORNER, key, encode(metrics),
                           study="corner", engine=engine)

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> CacheStats:
        """Scan the store: entry counts, bytes and per-study breakdown of
        the study entries, and the corner-store totals."""
        entries = 0
        total_bytes = 0
        by_study: Dict[str, int] = {}
        for path in self._tree_entries(_STUDY):
            entries += 1
            try:
                total_bytes += path.stat().st_size
                with open(path, "r", encoding="utf-8") as stream:
                    study = json.load(stream).get("study", "?")
            except (OSError, json.JSONDecodeError):
                study = "?"
            by_study[study] = by_study.get(study, 0) + 1
        corner_entries = 0
        corner_bytes = 0
        for path in self._tree_entries(_CORNER):
            corner_entries += 1
            try:
                corner_bytes += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total_bytes,
            by_study=by_study,
            corner_entries=corner_entries,
            corner_bytes=corner_bytes,
        )

    def prune(self, study: Optional[str] = None,
              max_age_s: Optional[float] = None,
              max_entries: Optional[int] = None) -> int:
        """Delete entries; returns the number removed.

        With no bounds this clears everything (optionally one study's
        entries — corner envelopes carry the pseudo-study ``"corner"``).
        ``max_age_s`` keeps only entries written within the last that many
        seconds; ``max_entries`` keeps only the newest that many entries
        per granularity (study entries and corner envelopes are bounded
        independently — they have very different cardinalities).  Both
        bounds respect the ``study`` filter and compose: an entry is
        removed if *either* bound says so.
        """
        if max_age_s is not None and max_age_s < 0:
            raise CacheError(f"max_age_s must be >= 0, got {max_age_s!r}")
        if max_entries is not None and max_entries < 0:
            raise CacheError(f"max_entries must be >= 0, got {max_entries!r}")
        removed = 0
        now = obs_clock.wall_time()
        for granularity in (_STUDY, _CORNER):
            candidates = []
            for path in self._tree_entries(granularity):
                try:
                    with open(path, "r", encoding="utf-8") as stream:
                        wrapper = json.load(stream)
                    entry_study = wrapper.get("study")
                    created = float(wrapper.get("created") or 0.0)
                except (OSError, json.JSONDecodeError, TypeError, ValueError):
                    # Unreadable entries are prunable regardless of the
                    # study filter, and sort as infinitely old.
                    entry_study, created = study, 0.0
                if study is not None and entry_study != study:
                    continue
                candidates.append((created, str(path), path))
            doomed = set()
            if max_age_s is None and max_entries is None:
                doomed.update(path for _, _, path in candidates)
            else:
                if max_age_s is not None:
                    cutoff = now - max_age_s
                    doomed.update(path for created, _, path in candidates
                                  if created < cutoff)
                if max_entries is not None:
                    survivors = sorted(
                        (entry for entry in candidates
                         if entry[2] not in doomed),
                        reverse=True,
                    )
                    doomed.update(path for _, _, path
                                  in survivors[max_entries:])
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def as_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalise the ``cache=`` parameter every runtime entry point takes:
    ``None``/``False`` disable caching, ``True`` opens the default store
    (``$REPRO_CACHE_DIR`` or ``.repro-cache/``), a path opens that store,
    and a :class:`ResultCache` passes through."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    raise CacheError(
        f"cache= must be None, bool, a path or a ResultCache, "
        f"got {type(cache).__name__}"
    )


__all__ = [
    "CACHE_SCHEMA",
    "CORNER_SCHEMA",
    "CacheLike",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ResultCache",
    "as_cache",
    "with_cache_status",
]
