"""The sweep driver: one :class:`SweepSpec` over every sweep engine.

``run_sweep_study`` evaluates the same axis specification on any engine
of the ``_ENGINES`` table:

* ``engine="immunity"`` — Monte Carlo immunity (Figure 2).  Axes:
  ``gate``, ``technique``, ``cnts_per_trial``, ``max_angle_deg``,
  ``metallic_fraction``.  Grid seeds follow the Figure 2 contract
  (techniques share defect populations, distinct parameter combinations
  get independent children, spawned in ``(gate, cnts_per_trial,
  max_angle_deg, metallic_fraction)`` product order); zip seeds are
  :meth:`SweepSpec.seeds` sharing ``technique``.  The ``immunity_sweep``
  study runs on this engine.
* ``engine="transient"`` — batch transient characterisation (Sect. IV).
  Axes: ``cell``, ``drive``, ``load_f``, ``slew_s``, ``vdd``,
  ``pitch_nm``.  A grid integrates each cell's corners in one batch on
  the full grid's shared time base; each zip corner is its own
  one-point grid.  Unseeded.
* ``engine="circuit"`` — one full circuit study per corner
  (:func:`repro.circuit_study.run_circuit_study`).  Axes: ``circuit``
  (generator spec or Verilog text), ``technique``, ``cnts_per_trial``,
  ``max_angle_deg``, ``metallic_fraction``, ``vdd``, ``pitch_nm``,
  ``draws``.  Corners differing only in ``vdd``/``pitch_nm`` share one
  child seed, so their defect populations are identical.

Axes not present in the spec take the engine's fixed defaults, which can
be overridden by keyword (``run_sweep_study(spec, engine="immunity",
gate="NAND3")``).

The driver knows no engine by name.  It resolves every corner's full
binding once, spawns the per-corner seeds in the parent, diffs the
corners against the corner store when a cache is attached, and executes
the missing ones (all of them without a cache) under one
``sweep.execute`` span.  Records list metrics in the engine's declared
order however they were obtained.  An :class:`_Engine` entry supplies:

* ``axes`` — every axis it understands, with its default;
* ``metrics`` — a record's metric names, in order;
* ``seeds(spec, constants, bindings, seed)`` — one child seed per
  corner, or ``None`` for an unseeded engine;
* ``keys(sweep)`` — one corner fingerprint per corner;
* ``execute(sweep, indices, jobs, backend)`` — the metrics of the
  corners at ``indices``; :func:`_execute_per_corner` builds it from a
  module-level one-corner function.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import (Any, Callable, ClassVar, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from ..errors import StudyError
from .results import Provenance, StudyResult
from .spec import Corner, SweepSpec, sweep_root

#: The trial count and root seed of a sweep that names none.
SWEEP_TRIALS = 200
SWEEP_SEED = 2009

#: Axes each engine understands, with their fixed-parameter defaults.
IMMUNITY_AXES: Dict[str, object] = {
    "gate": "NAND2",
    "technique": "compact",
    "cnts_per_trial": 4,
    "max_angle_deg": 15.0,
    "metallic_fraction": 0.0,
}
TRANSIENT_AXES: Dict[str, object] = {
    "cell": "INV",
    "drive": 1.0,
    "load_f": 1.0e-15,
    "slew_s": 5.0e-12,
    "vdd": 1.0,
    "pitch_nm": 5.0,
}
CIRCUIT_AXES: Dict[str, object] = {
    "circuit": "adder:4",
    "technique": "compact",
    "cnts_per_trial": 4,
    "max_angle_deg": 15.0,
    "metallic_fraction": 0.0,
    "vdd": 1.0,
    "pitch_nm": 5.0,
    "draws": 2000,
}

#: Electrical axes whose corners share one defect population (child seed)
#: in the circuit engine, mirroring the Figure 2 technique-sharing
#: contract: changing vdd or pitch must not change which defects land.
_CIRCUIT_SHARE_AXES = ("vdd", "pitch_nm")

#: The immunity axes that select a grid corner's child seed, in spawn
#: (product) order.
_IMMUNITY_SEED_AXES = ("gate", "cnts_per_trial", "max_angle_deg",
                       "metallic_fraction")


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated sweep corner: its bindings plus measured metrics."""

    corner: Any                     # Corner
    metrics: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.metrics[key]


@dataclass(frozen=True)
class SweepStudyResult(StudyResult):
    """The typed result of :func:`run_sweep_study`."""

    study_name: ClassVar[str] = "sweep"

    spec: Optional[SweepSpec] = None
    engine: str = ""
    records: Tuple[SweepRecord, ...] = ()

    @classmethod
    def from_payload(cls, payload, provenance):
        result = super().from_payload(payload, provenance)
        # Stored payloads come back key-sorted; restore metric order.
        return replace(result, records=tuple(
            _record(result.engine, record.corner, record.metrics)
            for record in result.records))

    def metric(self, name: str) -> List[Any]:
        """One metric across all records, in corner order."""
        return [record.metrics[name] for record in self.records]

    def __str__(self) -> str:
        if not self.records:
            return f"empty {self.engine} sweep"
        # Only scalar metrics make table columns; rich objects (e.g. the
        # full MonteCarloResult) stay reachable via record.metrics.
        metric_names = [
            name for name, value in self.records[0].metrics.items()
            if isinstance(value, (bool, int, float, str))
        ]
        width = max(len("corner"),
                    *(len(record.corner.label()) for record in self.records))
        header = f"{'corner':<{width}} " + " ".join(
            f"{name:>16}" for name in metric_names
        )
        lines = [header, "-" * len(header)]
        for record in self.records:
            cells = []
            for name in metric_names:
                value = record.metrics[name]
                if isinstance(value, bool):
                    cells.append(f"{str(value):>16}")
                elif isinstance(value, float):
                    cells.append(f"{value:>16.6g}")
                else:
                    cells.append(f"{value!s:>16}")
            lines.append(f"{record.corner.label():<{width}} " + " ".join(cells))
        return "\n".join(lines)


def _record(engine: str, corner: Corner,
            metrics: Mapping[str, Any]) -> SweepRecord:
    """A record whose metrics follow ``engine``'s declared order — whether
    they were computed now or loaded key-sorted from a store."""
    return SweepRecord(corner=corner, metrics={
        name: metrics[name] for name in _ENGINES[engine].metrics
    })


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Sweep:
    """A spec resolved against one engine: every corner's full binding
    (swept or fixed) and its pre-spawned child seed, in corner order."""

    spec: SweepSpec
    constants: Dict[str, object]
    bindings: Tuple[Dict[str, object], ...]
    seeds: Optional[Tuple[np.random.SeedSequence, ...]]
    trials: int


def sweep_engine(name: str, axes: Iterable[str] = (),
                 fixed: Iterable[str] = ()) -> _Engine:
    """The ``_ENGINES`` entry for ``name``; a :class:`StudyError` for an
    unknown engine, or an axis or fixed parameter it does not take."""
    if not isinstance(name, str) or name not in _ENGINES:
        raise StudyError(
            f"Unknown sweep engine {name!r}; use one of {sorted(_ENGINES)}"
        )
    entry = _ENGINES[name]
    for kind, names in (("axes", list(axes)),
                        ("fixed parameters", sorted(fixed))):
        unknown = [item for item in names if item not in entry.axes]
        if unknown:
            raise StudyError(
                f"Engine {name!r} does not understand {kind} {unknown}; "
                f"supported: {sorted(entry.axes)}"
            )
    return entry


def _resolve(spec: SweepSpec, engine: str, trials: int, seed,
             fixed: Mapping[str, object]) -> _Sweep:
    entry = sweep_engine(engine, spec.axis_names, fixed)
    constants = {name: fixed.get(name, default)
                 for name, default in entry.axes.items()
                 if name not in spec.axis_names}
    bindings = tuple(
        {name: corner.get(name, constants.get(name)) for name in entry.axes}
        for corner in spec.corners()
    )
    seeds = None
    if entry.seeds is not None:
        seeds = tuple(entry.seeds(spec, constants, bindings, seed))
    return _Sweep(spec=spec, constants=constants, bindings=bindings,
                  seeds=seeds, trials=trials)


def run_sweep_study(spec: SweepSpec, engine: str = "immunity",
                    trials: int = SWEEP_TRIALS, seed=SWEEP_SEED,
                    jobs: Optional[int] = None,
                    backend: Optional[str] = None,
                    cache=None,
                    **fixed) -> SweepStudyResult:
    """Evaluate a :class:`SweepSpec` on one of the vectorized engines.

    ``jobs``/``backend`` route the sweep through the runtime scheduler:
    corners are sharded into contiguous chunks and evaluated over a
    process pool (or threads / serially — see
    :mod:`repro.runtime.scheduler`), with per-corner seeds spawned in the
    parent under the established ``_SWEEP_SPAWN_KEY`` contract, so the
    merged result is **bit-identical** to the serial run for any ``jobs``
    value on every engine.

    ``cache`` plugs the content-addressed result store in (a
    :class:`~repro.runtime.cache.ResultCache`, a path, or ``True`` for
    the default store) at **two granularities**: the whole-study envelope
    (an exact re-run returns the stored typed result without touching the
    engines) and the individual corner (a changed sweep is diffed against
    the persistent corner store and **only the missing corners execute**
    — the delta path that turns an axis-extension re-run from O(grid)
    into O(delta)).  Either way the returned result is bit-identical to a
    cold serial run, and provenance records ``cache="hit"`` / ``"miss"``
    / ``"partial:<hits>/<corners>"``.  Scheduling parameters never enter
    the fingerprints or provenance — they cannot change the result.
    """
    if not isinstance(spec, SweepSpec):
        raise StudyError(f"run_sweep_study needs a SweepSpec, got {type(spec).__name__}")
    # Imported lazily: the runtime layer sits on top of the study layer.
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace
    from ..runtime.cache import cached_study, with_cache_status
    from ..runtime.fingerprint import sweep_fingerprint
    from ..runtime.scheduler import plan_delta, resolve_jobs

    entry = sweep_engine(engine)
    corners = spec.corners()

    def compute(store) -> SweepStudyResult:
        # Diff the corners against the corner store, execute the missing
        # ones (all of them without a store), merge in corner order.
        sweep = _resolve(spec, engine, trials, seed, fixed)
        metrics_by_index: Dict[int, Mapping[str, Any]] = {}
        missing: Sequence[int] = range(len(corners))
        if store is not None:
            with obs_trace.span("sweep.plan", corners=len(corners)):
                keys = entry.keys(sweep)
                stored = store.get_corners(keys)
                plan = plan_delta(keys, set(stored))
                obs_trace.annotate(hits=plan.hits, misses=plan.misses,
                                   status=plan.status)
            metrics_by_index = {index: stored[keys[index]]
                                for index in plan.hit_indices}
            missing = plan.miss_indices
        counters = obs_metrics.registry()
        counters.inc("sweep.corners_planned", len(corners))
        counters.inc("sweep.corners_cached", len(metrics_by_index))
        counters.inc("sweep.corners_executed", len(missing))

        if missing:
            with obs_trace.span("sweep.execute", corners=len(missing),
                                engine=engine):
                fresh = entry.execute(sweep, missing, resolve_jobs(jobs),
                                      backend)
                for index, metrics in zip(missing, fresh):
                    metrics_by_index[index] = metrics
                    if store is not None:
                        store.put_corner(keys[index], metrics, engine=engine)

        result = SweepStudyResult(
            provenance=Provenance.capture(
                "sweep", engine=engine, seed=seed,
                params={"axes": {axis.name: axis.values
                                 for axis in spec.axes},
                        "mode": spec.mode, "trials": trials, "seed": seed,
                        **fixed},
            ),
            spec=spec,
            engine=engine,
            records=tuple(_record(engine, corner, metrics_by_index[index])
                          for index, corner in enumerate(corners)),
        )
        if store is None:
            return result
        return with_cache_status(result, plan.status)

    return cached_study(
        f"sweep:{engine}", cache,
        # seed=None asks a seeded engine for fresh OS entropy.
        fresh=entry.seeds is not None and seed is None,
        key=lambda: sweep_fingerprint(spec, engine, trials, seed, fixed),
        compute=compute,
        engine=engine, mode=spec.mode, corners=len(corners), trials=trials,
    )


def _sweep_corner_keys(spec: SweepSpec, engine: str, trials: int, seed,
                       fixed: Mapping[str, object]):
    """``(keys, seeds)`` — one corner fingerprint per spec corner, in
    corner order (``seeds`` is ``None`` for the transient engine).

    A key hashes the corner's **fully-resolved** binding (every engine
    axis, swept or fixed), so it is invariant under which axes the spec
    declares, their order and NumPy-vs-Python scalar spellings.  Seeded
    engines add the corner's child ``SeedSequence`` (value, not position:
    a grid reshape that reassigns spawn positions correctly misses) and
    the trial count; the circuit engine hashes its resolved netlist, not
    its spelling; the transient engine hashes the shared per-cell time
    base (:func:`repro.cells.characterize.grid_time_base`), so a reshape
    that moves it recomputes.
    """
    sweep = _resolve(spec, engine, trials, seed, fixed)
    seeds = list(sweep.seeds) if sweep.seeds is not None else None
    return _ENGINES[engine].keys(sweep), seeds


# ---------------------------------------------------------------------------
# Per-corner execution (immunity, circuit, transient zip)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CornerShard:
    """A picklable chunk of corners for one module-level corner runner:
    resolved bindings plus their pre-spawned seeds."""

    run: Callable[[Dict[str, object], Any, int], Dict[str, Any]]
    bindings: Tuple[Dict[str, object], ...]
    seeds: Tuple[Optional[np.random.SeedSequence], ...]
    trials: int


def _run_corner_shard(shard: _CornerShard) -> List[Dict[str, Any]]:
    """Worker: evaluate one shard's corners (module-level for pickling)."""
    return [shard.run(values, child, shard.trials)
            for values, child in zip(shard.bindings, shard.seeds)]


def _execute_per_corner(run, sweep: _Sweep, indices: Sequence[int],
                        jobs: int,
                        backend: Optional[str]) -> List[Dict[str, Any]]:
    """Evaluate the corners at ``indices`` one ``run(values, seed,
    trials)`` call each, sharded over the runtime scheduler; metrics in
    ``indices`` order.  Seeds were spawned in the parent, so any shard
    split gives the serial result."""
    from ..runtime.scheduler import plan_shards, run_tasks

    bindings = [sweep.bindings[index] for index in indices]
    seeds = ([sweep.seeds[index] for index in indices]
             if sweep.seeds is not None else [None] * len(indices))
    shards = [
        _CornerShard(run=run, bindings=tuple(bindings[start:stop]),
                     seeds=tuple(seeds[start:stop]), trials=sweep.trials)
        for start, stop in plan_shards(len(indices), jobs)
    ]
    per_shard = run_tasks(_run_corner_shard, shards, jobs=jobs,
                          backend=backend)
    return [metrics for chunk in per_shard for metrics in chunk]


# ---------------------------------------------------------------------------
# Immunity engine
# ---------------------------------------------------------------------------

def _axis_or_constant(spec: SweepSpec, constants: Mapping[str, object],
                      name: str) -> Tuple[object, ...]:
    if name in spec.axis_names:
        return tuple(spec.axis(name).values)
    return (constants[name],)


def _immunity_seeds(spec: SweepSpec, constants: Mapping[str, object],
                    bindings: Sequence[Mapping[str, object]],
                    seed) -> List[np.random.SeedSequence]:
    """One child :class:`~numpy.random.SeedSequence` per corner.

    Grid mode is the Figure 2 sweep contract: children are spawned from
    :func:`~repro.study.spec.sweep_root` in ``(gate, cnts, angle,
    metallic)`` product order, and corners differing only in
    ``technique`` share one child.  Zip mode is
    :meth:`SweepSpec.seeds` with ``share_axes=("technique",)``.
    """
    if spec.mode != "grid":
        return spec.seeds(seed, share_axes=("technique",))
    combos = list(itertools.product(*(
        _axis_or_constant(spec, constants, name)
        for name in _IMMUNITY_SEED_AXES
    )))
    by_combo = dict(zip(combos, sweep_root(seed).spawn(len(combos))))
    return [by_combo[tuple(values[name] for name in _IMMUNITY_SEED_AXES)]
            for values in bindings]


def _immunity_keys(sweep: _Sweep) -> List[str]:
    from ..runtime.fingerprint import corner_fingerprint

    return [
        corner_fingerprint("immunity", values, seed=child,
                           trials=sweep.trials)
        for values, child in zip(sweep.bindings, sweep.seeds)
    ]


def _immunity_corner(values: Mapping[str, object], seed,
                     trials: int) -> Dict[str, Any]:
    """Worker: one immunity corner — assemble the cell, run its trials."""
    from ..core.standard_cell import assemble_cell
    from ..immunity import montecarlo
    from ..logic.functions import standard_gate

    cell = assemble_cell(
        standard_gate(values["gate"]), technique=values["technique"]
    )
    result = montecarlo.run_immunity_trials(
        cell,
        trials=trials,
        cnts_per_trial=values["cnts_per_trial"],
        max_angle_deg=values["max_angle_deg"],
        metallic_fraction=values["metallic_fraction"],
        seed=seed,
    )
    return {
        "failure_rate": result.failure_rate,
        "failures": result.failures,
        "trials": result.trials,
        "immune": result.immune,
        "result": result,
    }


# ---------------------------------------------------------------------------
# Circuit engine
# ---------------------------------------------------------------------------

#: The scalar corner payload of one circuit study (the full typed result
#: stays reachable through ``run_study("circuit", ...)``; sweep corners
#: store only what the corner table plots).
_CIRCUIT_METRICS = (
    "functional_yield",
    "monte_carlo_yield",
    "critical_path_delay_s",
    "total_energy_per_cycle_j",
    "total_cell_area_lambda2",
    "instances",
    "unique_cells",
)


def _circuit_seeds(spec: SweepSpec, constants: Mapping[str, object],
                   bindings: Sequence[Mapping[str, object]],
                   seed) -> List[np.random.SeedSequence]:
    return spec.seeds(seed, share_axes=_CIRCUIT_SHARE_AXES)


def _circuit_keys(sweep: _Sweep) -> List[str]:
    from ..circuit_study.circuits import resolve_circuit
    from ..runtime.fingerprint import corner_fingerprint, netlist_context

    # The corner's circuit enters the address through the *resolved*
    # netlist structure (the context), not through how it was spelled —
    # so a generator spec and the Verilog text it round-trips through
    # share corners, while any rewiring misses.  Resolved once per
    # distinct circuit value, not per corner.
    contexts: Dict[object, object] = {}
    keys = []
    for values, child in zip(sweep.bindings, sweep.seeds):
        circuit = values["circuit"]
        if circuit not in contexts:
            contexts[circuit] = netlist_context(resolve_circuit(circuit)[0])
        keys.append(corner_fingerprint(
            "circuit",
            {name: value for name, value in values.items()
             if name != "circuit"},
            seed=child,
            trials=sweep.trials,
            context=contexts[circuit],
        ))
    return keys


def _circuit_corner(values: Mapping[str, object], seed,
                    trials: int) -> Dict[str, Any]:
    """Worker: one circuit corner.  Each is a full, uncached, serial
    inner study — parallelism and caching belong to the sweep driver."""
    from ..circuit_study import study as circuit_engine

    result = circuit_engine.run_circuit_study(
        values["circuit"],
        trials=trials,
        seed=seed,
        cnts_per_trial=values["cnts_per_trial"],
        max_angle_deg=values["max_angle_deg"],
        metallic_fraction=values["metallic_fraction"],
        technique=values["technique"],
        vdd=values["vdd"],
        pitch_nm=values["pitch_nm"],
        draws=int(values["draws"]),
    )
    return {name: getattr(result, name) for name in _CIRCUIT_METRICS}


# ---------------------------------------------------------------------------
# Transient / characterisation engine
# ---------------------------------------------------------------------------

_TRANSIENT_METRICS = (
    "delay_rise_s",
    "delay_fall_s",
    "worst_delay_s",
    "energy_per_cycle_j",
    "vdd",
)


def _transient_metrics(point) -> Dict[str, Any]:
    return {name: getattr(point, name) for name in _TRANSIENT_METRICS}


def _corner_name(vdd: float, pitch_nm: float) -> str:
    return f"v{vdd:g}_p{pitch_nm:g}"


def _corner_techs(corner_grid: Sequence[Tuple[object, object]]):
    """``{name: technology}`` for ``(vdd, pitch_nm)`` corners."""
    from ..cells.characterize import cnfet_technology

    return {_corner_name(vdd, pitch): cnfet_technology(vdd=vdd, pitch_nm=pitch)
            for vdd, pitch in corner_grid}


def _transient_grid(sweep: _Sweep):
    """``(drives, loads, slews, corner_grid)`` of a grid sweep: the
    per-cell product every grid corner is integrated on, with
    ``corner_grid`` the ``(vdd, pitch_nm)`` pairs."""
    drives, loads, slews, vdds, pitches = (
        _axis_or_constant(sweep.spec, sweep.constants, name)
        for name in ("drive", "load_f", "slew_s", "vdd", "pitch_nm"))
    return drives, loads, slews, tuple(itertools.product(vdds, pitches))


def _transient_keys(sweep: _Sweep) -> List[str]:
    from ..cells.characterize import grid_time_base
    from ..runtime.fingerprint import corner_fingerprint

    if sweep.spec.mode == "grid":
        # The whole per-cell grid shares one time base, so every corner of
        # a cell carries the same context — computed once per cell.
        drives, loads, slews, corner_grid = _transient_grid(sweep)
        techs = _corner_techs(corner_grid)
        by_cell: Dict[str, Tuple[object, ...]] = {}
        contexts = []
        for values in sweep.bindings:
            cell = str(values["cell"])
            if cell not in by_cell:
                by_cell[cell] = grid_time_base(cell, drives, loads, slews,
                                               techs)
            contexts.append(by_cell[cell])
    else:
        # Zip corners are evaluated as their own one-point grids, so the
        # context is each corner's private time base.
        contexts = [
            grid_time_base(
                str(values["cell"]), (values["drive"],),
                (values["load_f"],), (values["slew_s"],),
                _corner_techs([(values["vdd"], values["pitch_nm"])]),
            )
            for values in sweep.bindings
        ]
    return [corner_fingerprint("transient", values, context=context)
            for values, context in zip(sweep.bindings, contexts)]


def _transient_corner(values: Mapping[str, object], seed,
                      trials: int) -> Dict[str, Any]:
    """Worker: one zip corner, characterised as its own one-point grid."""
    from ..cells.characterize import characterize_sweep

    sweep = characterize_sweep(
        gate_names=(str(values["cell"]),),
        drive_strengths=(values["drive"],),
        load_capacitances_f=(values["load_f"],),
        input_slews_s=(values["slew_s"],),
        corners=_corner_techs([(values["vdd"], values["pitch_nm"])]),
    )
    return _transient_metrics(sweep.points[0])


@dataclass(frozen=True)
class _TransientGridShard:
    """A picklable slice of one cell's characterisation grid.

    Workers re-plan the **full** ``(drive, load, slew, corner)`` grid —
    cheap, analytical — so the shared time base matches the full batch
    exactly, then integrate only ``case_indices``
    (:func:`repro.cells.characterize.characterize_cases`)."""

    cell: str
    case_indices: Tuple[int, ...]
    drives: Tuple[object, ...]
    loads: Tuple[object, ...]
    slews: Tuple[object, ...]
    corner_grid: Tuple[Tuple[object, object], ...]   # (vdd, pitch_nm)


def _run_transient_grid_shard(shard: _TransientGridShard) -> List[Dict[str, Any]]:
    """Worker: integrate one grid shard (module-level for pickling)."""
    from ..cells.characterize import characterize_cases

    points = characterize_cases(
        shard.cell, shard.case_indices,
        drive_strengths=shard.drives,
        load_capacitances_f=shard.loads,
        input_slews_s=shard.slews,
        corners=_corner_techs(shard.corner_grid),
    )
    return [_transient_metrics(point) for point in points]


def _execute_transient(sweep: _Sweep, indices: Sequence[int], jobs: int,
                       backend: Optional[str]) -> List[Dict[str, Any]]:
    """Evaluate the corners at ``indices``; metrics in ``indices`` order.

    Zip corners run one by one.  Grid shards re-plan the **full** per-cell
    grid and integrate only their cases, so a subset run — a delta
    recompute as much as a parallel shard — lands on the same shared time
    base and bit-identical waveforms as the whole grid in one batch.
    """
    if sweep.spec.mode == "zip":
        return _execute_per_corner(_transient_corner, sweep, indices, jobs,
                                   backend)
    from ..runtime.scheduler import run_tasks, shard_indices

    drives, loads, slews, corner_grid = _transient_grid(sweep)

    # Selected corner -> flat index into its cell's product grid, grouped
    # by cell because the shared time base is per cell.
    by_cell: Dict[str, List[Tuple[int, int]]] = {}
    for position, index in enumerate(indices):
        values = sweep.bindings[index]
        flat = np.ravel_multi_index(
            (
                drives.index(values["drive"]),
                loads.index(values["load_f"]),
                slews.index(values["slew_s"]),
                corner_grid.index((values["vdd"], values["pitch_nm"])),
            ),
            (len(drives), len(loads), len(slews), len(corner_grid)),
        )
        by_cell.setdefault(str(values["cell"]), []).append(
            (position, int(flat)))

    tasks: List[_TransientGridShard] = []
    owners: List[List[int]] = []
    for cell, pairs in by_cell.items():
        # One shard per worker, no oversubscription: each transient shard
        # re-plans the whole per-cell grid (O(grid), unlike the O(slice)
        # per-corner shards), so extra shards multiply planning work.
        for start, stop in shard_indices(len(pairs), jobs):
            chunk = pairs[start:stop]
            tasks.append(_TransientGridShard(
                cell=cell,
                case_indices=tuple(flat for _, flat in chunk),
                drives=drives, loads=loads, slews=slews,
                corner_grid=corner_grid,
            ))
            owners.append([position for position, _ in chunk])
    per_shard = run_tasks(_run_transient_grid_shard, tasks, jobs=jobs,
                          backend=backend)
    metrics: List[Optional[Dict[str, Any]]] = [None] * len(indices)
    for owner, chunk in zip(owners, per_shard):
        for position, corner_metrics in zip(owner, chunk):
            metrics[position] = corner_metrics
    return metrics


# ---------------------------------------------------------------------------
# The engine table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Engine:
    """Everything the driver needs from one sweep engine."""

    axes: Mapping[str, object]
    metrics: Tuple[str, ...]
    seeds: Optional[Callable[..., Sequence[np.random.SeedSequence]]]
    keys: Callable[[_Sweep], List[str]]
    execute: Callable[..., List[Dict[str, Any]]]


_ENGINES: Dict[str, _Engine] = {
    "immunity": _Engine(
        axes=IMMUNITY_AXES,
        metrics=("failure_rate", "failures", "trials", "immune", "result"),
        seeds=_immunity_seeds,
        keys=_immunity_keys,
        execute=functools.partial(_execute_per_corner, _immunity_corner),
    ),
    "transient": _Engine(
        axes=TRANSIENT_AXES,
        metrics=_TRANSIENT_METRICS,
        seeds=None,
        keys=_transient_keys,
        execute=_execute_transient,
    ),
    "circuit": _Engine(
        axes=CIRCUIT_AXES,
        metrics=_CIRCUIT_METRICS,
        seeds=_circuit_seeds,
        keys=_circuit_keys,
        execute=functools.partial(_execute_per_corner, _circuit_corner),
    ),
}
