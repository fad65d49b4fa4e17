"""Monte Carlo mispositioned-CNT immunity experiments (Figure 2).

The paper's qualitative claim — the vulnerable layout of Figure 2(b) fails
under mispositioned CNTs while the immune layouts (etched-region baseline
and the new compact technique) keep 100 % functionality — is quantified
here: for each layout technique a population of random mispositioned CNTs
is injected repeatedly and the fraction of trials whose truth table is
corrupted is reported.

Engine and oracle
-----------------
:func:`run_immunity_trials` samples whole defect populations at once and
evaluates every trial × input-assignment with NumPy array operations via
:meth:`~repro.immunity.checker.ImmunityChecker.evaluate_batch`, in memory
chunks of ``chunk_size`` trials.  :func:`run_reference_trials` is its
executable specification: one trial at a time through the scalar
reference checker, exactly as the original implementation.  Both consume
the random stream in the same per-tube order, so a fixed seed produces
identical :class:`MonteCarloResult` values from either (and for any
``chunk_size``).

Seed contract
-------------
:func:`compare_techniques` attacks **every technique with the same defect
model**: each technique's generator is built from the same seed (one common
``SeedSequence``), so trial ``t`` consumes the identical underlying uniform
draws for every technique.  The raw draws are scaled to each cell's own
bounding box, which is what "the same Monte Carlo CNT defect model" means
for cells of different sizes.  Parameter sweeps extend the contract
(:func:`repro.study.run_sweep_study` with ``engine="immunity"``): corners
that differ only in ``technique`` share one spawned child sequence, while
distinct parameter combinations get independent child sequences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from ..core.spec import CellAnnotations
from ..core.standard_cell import StandardCell, assemble_cell
from ..errors import ImmunityAnalysisError
from ..logic.functions import standard_gate
from ..tech.lambda_rules import CNFET_RULES, DesignRules
from .checker import ImmunityChecker
from .cnts import (
    CNTBatch,
    nominal_cnts,
    random_mispositioned_cnts,
    sample_mispositioned_batch,
)

#: Trials evaluated per vectorized chunk; bounds peak memory while keeping
#: the arrays large enough to amortise dispatch overhead.
DEFAULT_CHUNK_SIZE = 512

#: Assembled cells run their CNT strips horizontally: tubes grow along x.
_GROWTH_AXIS = "x"

#: Seed-like values accepted wherever a Monte Carlo seed is expected: a
#: non-negative integer, a SeedSequence, or ``None`` for fresh OS entropy
#: (see :func:`_as_seed_sequence`).
SeedLike = Union[None, int, np.integer, np.random.SeedSequence]


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate outcome of one immunity Monte Carlo run."""

    cell_name: str
    technique: str
    trials: int
    cnts_per_trial: int
    failures: int
    nominal_matches: bool

    @property
    def failure_rate(self) -> float:
        """Fraction of trials whose logic function was corrupted."""
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    @property
    def immune(self) -> bool:
        """100 % functional immunity across all trials."""
        return self.failures == 0 and self.nominal_matches


def run_immunity_trials(
    cell: StandardCell,
    trials: int = 200,
    cnts_per_trial: int = 4,
    max_angle_deg: float = 15.0,
    seed: SeedLike = 2009,
    cnt_pitch: float = 1.0,
    metallic_fraction: float = 0.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> MonteCarloResult:
    """Monte Carlo immunity analysis of one assembled standard cell.

    Assembled cells have their CNT strips running horizontally, so the
    growth axis is ``x``.  ``metallic_fraction`` marks a fraction of the
    injected defect tubes as metallic — the paper assumes this is zero after
    processing (Section II); raising it shows how quickly that assumption
    matters, because no layout technique can gate a metallic tube off.
    """
    if chunk_size <= 0:
        raise ImmunityAnalysisError("chunk_size must be positive")
    return _run_trials(
        functools.partial(_batched_trials, chunk_size=chunk_size),
        cell, trials, cnts_per_trial, max_angle_deg, seed, cnt_pitch,
        metallic_fraction,
    )


def run_reference_trials(
    cell: StandardCell,
    trials: int = 200,
    cnts_per_trial: int = 4,
    max_angle_deg: float = 15.0,
    seed: SeedLike = 2009,
    cnt_pitch: float = 1.0,
    metallic_fraction: float = 0.0,
) -> MonteCarloResult:
    """The scalar oracle of :func:`run_immunity_trials`: one trial at a
    time through the reference checker.  A fixed seed gives the identical
    :class:`MonteCarloResult`; it exists for the parity tests and the
    speedup benchmark."""
    return _run_trials(
        _reference_trials, cell, trials, cnts_per_trial, max_angle_deg,
        seed, cnt_pitch, metallic_fraction,
    )


def _run_trials(
    evaluate: Callable[..., Tuple[int, bool]],
    cell: StandardCell,
    trials: int,
    cnts_per_trial: int,
    max_angle_deg: float,
    seed: SeedLike,
    cnt_pitch: float,
    metallic_fraction: float,
) -> MonteCarloResult:
    if trials <= 0:
        raise ImmunityAnalysisError("trials must be positive")
    if (isinstance(cnts_per_trial, bool)
            or not isinstance(cnts_per_trial, (int, np.integer))):
        raise ImmunityAnalysisError(
            f"cnts_per_trial must be an integer, got {cnts_per_trial!r}"
        )
    if (isinstance(max_angle_deg, bool)
            or not isinstance(max_angle_deg,
                              (int, float, np.integer, np.floating))
            or not math.isfinite(max_angle_deg)):
        raise ImmunityAnalysisError(
            f"max_angle_deg must be a finite number, got {max_angle_deg!r}"
        )
    annotations = cell.annotations()
    checker = ImmunityChecker(annotations)
    nominal = nominal_cnts(annotations, pitch=cnt_pitch, axis=_GROWTH_AXIS)
    expected = cell.gate.expected_truth_table() if cell.gate else None
    rng = np.random.default_rng(_as_seed_sequence(seed))
    failures, nominal_matches = evaluate(
        checker, annotations, nominal, expected, rng, trials,
        cnts_per_trial, max_angle_deg, metallic_fraction,
    )
    return MonteCarloResult(
        cell_name=annotations.cell_name,
        technique=cell.technique,
        trials=trials,
        cnts_per_trial=cnts_per_trial,
        failures=failures,
        nominal_matches=nominal_matches,
    )


def _reference_trials(
    checker: ImmunityChecker,
    annotations: CellAnnotations,
    nominal,
    expected,
    rng: np.random.Generator,
    trials: int,
    cnts_per_trial: int,
    max_angle_deg: float,
    metallic_fraction: float,
) -> Tuple[int, bool]:
    """The original per-trial loop over the scalar reference checker."""
    nominal_report = checker.check(nominal, [], expected=expected,
                                   reference=True)
    failures = 0
    for _ in range(trials):
        strays = random_mispositioned_cnts(
            annotations, cnts_per_trial, rng, max_angle_deg=max_angle_deg,
            axis=_GROWTH_AXIS, metallic_fraction=metallic_fraction,
        )
        report = checker.check(nominal, strays, expected=expected,
                               reference=True)
        if not report.immune:
            failures += 1
    return failures, nominal_report.nominal_matches and nominal_report.immune


def _batched_trials(
    checker: ImmunityChecker,
    annotations: CellAnnotations,
    nominal,
    expected,
    rng: np.random.Generator,
    trials: int,
    cnts_per_trial: int,
    max_angle_deg: float,
    metallic_fraction: float,
    chunk_size: int,
) -> Tuple[int, bool]:
    """All trials through the vectorized evaluator, in bounded chunks."""
    base_adjacency, nominal_codes = checker.base_state(
        CNTBatch.from_instances(nominal)
    )
    if expected is not None:
        inputs_match = set(expected.inputs) == set(checker.inputs)
        expected_codes = checker.truth_table_codes(expected)
    else:
        inputs_match = True
        expected_codes = nominal_codes
    nominal_matches = inputs_match and bool(
        (nominal_codes == expected_codes).all()
    )

    failures = 0
    remaining = trials
    while remaining:
        chunk = min(chunk_size, remaining)
        batch = sample_mispositioned_batch(
            annotations, chunk * cnts_per_trial, rng,
            max_angle_deg=max_angle_deg, axis=_GROWTH_AXIS,
            metallic_fraction=metallic_fraction,
        )
        codes = checker.evaluate_batch(batch, groups=chunk,
                                       base_adjacency=base_adjacency)
        failures += int((codes != expected_codes[None, :]).any(axis=1).sum())
        remaining -= chunk
    return failures, nominal_matches


def compare_techniques(
    gate_name: str = "NAND2",
    techniques: Sequence[str] = ("vulnerable", "baseline", "compact"),
    trials: int = 200,
    cnts_per_trial: int = 4,
    unit_width: float = 4.0,
    scheme: int = 1,
    seed: SeedLike = 2009,
    rules: DesignRules = CNFET_RULES,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Dict[str, MonteCarloResult]:
    """Run the Figure 2 experiment: the same gate laid out with each
    technique, attacked by the same Monte Carlo CNT defect model.

    Every technique's generator is spawned from the common
    ``SeedSequence(seed)``, so all techniques consume the identical
    underlying defect draws — trial ``t`` uses the same raw ``(x, y, angle,
    metallic)`` uniforms for every technique, making the Figure 2 comparison
    apples-to-apples.  (The draws are scaled to each cell's own bounding
    box; independence *within* a technique comes from consuming the stream
    across trials.)
    """
    results: Dict[str, MonteCarloResult] = {}
    seed_sequence = _as_seed_sequence(seed)
    for technique in techniques:
        gate = standard_gate(gate_name)
        cell = assemble_cell(
            gate, technique=technique, scheme=scheme, unit_width=unit_width, rules=rules
        )
        results[technique] = run_immunity_trials(
            cell,
            trials=trials,
            cnts_per_trial=cnts_per_trial,
            seed=seed_sequence,
            chunk_size=chunk_size,
        )
    return results


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """A reusable SeedSequence: passing it to ``default_rng`` repeatedly
    yields identically seeded generators (the shared-population contract).

    The one coercion point for every seed: anything but ``None``, a
    SeedSequence or a non-negative Python/NumPy integer — a bool, a
    float, a string, a negative number — is an
    :class:`~repro.errors.ImmunityAnalysisError`.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None or (isinstance(seed, (int, np.integer))
                        and not isinstance(seed, bool) and seed >= 0):
        return np.random.SeedSequence(seed)
    raise ImmunityAnalysisError(
        f"seed must be None, a SeedSequence or a non-negative integer, "
        f"got {seed!r}"
    )


#: Reserved spawn-key element for per-cell seed derivation in circuit
#: studies (see :func:`circuit_cell_seed`); one above the sweep key of
#: :mod:`repro.study.spec` so circuit children can never collide with
#: sweep children of the same root.
_CIRCUIT_SPAWN_KEY = (1 << 31) + 1


def circuit_cell_seed(seed: SeedLike, cell_name: str) -> np.random.SeedSequence:
    """A stable child SeedSequence for one named cell of a circuit study.

    The child depends only on the root seed and ``cell_name`` — not on how
    many other cells the circuit contains or the order they are evaluated —
    so the same cell in a different circuit (or a re-run with a grown
    netlist) draws the identical defect population.  That is what lets the
    corner store reuse per-cell immunity entries across circuits.
    """
    import hashlib

    root = _as_seed_sequence(seed)
    token = int.from_bytes(
        hashlib.sha256(cell_name.encode("utf-8")).digest()[:4], "big"
    )
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (_CIRCUIT_SPAWN_KEY, token),
        pool_size=root.pool_size,
    )


def circuit_survival_draws(
    failure_probabilities: Sequence[float],
    draws: int,
    seed: SeedLike,
) -> np.ndarray:
    """Defective-instance counts for ``draws`` independent circuit samples.

    Each draw flips one Bernoulli coin per instance with that instance's
    cell failure probability; the returned int array holds the number of
    defective instances per draw (0 ⇒ the circuit is functional under the
    every-cell-must-work yield model).  Vectorized: one uniform matrix of
    shape ``(draws, instances)``.
    """
    probs = np.asarray(list(failure_probabilities), dtype=float)
    if draws < 0:
        raise ImmunityAnalysisError("draws must be non-negative")
    if probs.size == 0 or draws == 0:
        return np.zeros(draws, dtype=np.int64)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ImmunityAnalysisError(
            "failure probabilities must lie in [0, 1]"
        )
    rng = np.random.default_rng(_as_seed_sequence(seed))
    uniforms = rng.random((int(draws), probs.size))
    return np.count_nonzero(uniforms < probs[np.newaxis, :], axis=1).astype(np.int64)


def format_comparison(results: Dict[str, MonteCarloResult]) -> str:
    """Render a technique-vs-failure-rate table."""
    header = f"{'technique':<12} {'trials':>7} {'failures':>9} {'failure rate':>13} {'immune':>7}"
    lines = [header, "-" * len(header)]
    for technique, result in results.items():
        lines.append(
            f"{technique:<12} {result.trials:>7} {result.failures:>9} "
            f"{result.failure_rate * 100:>12.1f}% {str(result.immune):>7}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parameter sweep points (the immunity_sweep study's payload)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One cell of a parameter sweep and its Monte Carlo outcome."""

    gate: str
    technique: str
    cnts_per_trial: int
    max_angle_deg: float
    metallic_fraction: float
    result: MonteCarloResult

    @property
    def failure_rate(self) -> float:
        return self.result.failure_rate


def format_sweep(points: Sequence[SweepPoint]) -> str:
    """Render a sweep as a text table."""
    header = (
        f"{'gate':<8} {'technique':<12} {'cnts':>5} {'angle':>6} "
        f"{'metallic':>9} {'trials':>7} {'failure rate':>13} {'immune':>7}"
    )
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.gate:<8} {point.technique:<12} "
            f"{point.cnts_per_trial:>5} {point.max_angle_deg:>6.1f} "
            f"{point.metallic_fraction:>9.2f} {point.result.trials:>7} "
            f"{point.failure_rate * 100:>12.1f}% {str(point.result.immune):>7}"
        )
    return "\n".join(lines)
