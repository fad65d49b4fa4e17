"""Transient simulation of transistor-level netlists.

The paper's electrical results come from HSPICE; this module provides the
offline equivalent: a small nodal transient solver over the CNFET/MOSFET
compact models.  Every internal net carries a lumped capacitance (device
loading plus any explicit capacitors); device currents charge and discharge
those capacitances.  Integration is explicit with adaptive sub-stepping,
which is robust for the gate-sized circuits the experiments need (inverter
chains, logic gates, a full adder) and keeps the implementation
dependency-free.

Engine and oracle
-----------------
The **batch engine** lowers each :class:`SimulationCase` once into NumPy
structure arrays (see *Precompiled array layout* below) and integrates
every case of a batch as one state matrix (a column per case) with array
operations — one :func:`run_transient_batch` call sweeps many
stimuli/corners (supply voltage, CNT pitch / tubes per device, load
capacitance, input slew) in a single vectorized integration.
:meth:`TransientSimulator.run_reference` is its executable specification:
one case at a time, one device at a time, through the scalar
:meth:`TransientSimulator._channel_current`, exactly as the original
implementation.

The two produce **bit-identical waveforms and supply charge** for the
same case.  The contract mirrors the Monte Carlo immunity engine of
:mod:`repro.immunity` (``run_immunity_trials`` vs its oracle
``run_reference_trials``): every floating-point operation of the scalar
loop has an elementwise vector counterpart executed in the same order,
and the one transcendental in the inner loop (the alpha-power law) goes
through the shared :func:`~repro.devices.powerlaw.alpha_power` kernel in
both.  ``benchmarks/bench_sim_scale.py`` asserts both the contract and a
>=10x speedup floor at figure-sized batches; ``docs/architecture.md``
documents the design.

Precompiled array layout
------------------------
:class:`CompiledTransientBatch` lowers ``B`` topology-identical cases with
``T`` transistors, ``N`` nets (``I`` of them integrated), ``S`` driven
source nets and ``R`` contributions on the busiest net into a *step
plan*.  Arrays carry the batch axis last, so every per-step operand is
contiguous.  With ``K = 1 + I``:

=======================  ================  ==============================
array                    shape             contents
=======================  ================  ==============================
``initial_state``        ``(2 (1+N), B)``  ``[v | -v]``; rows of ``v``:
                                           supply charge, integrated
                                           nets, sources, rails
``terminal_rows``        ``(3T,)``         state row of each gate, drain
                                           and source terminal; p-type
                                           rows index the negated half
``prefactor``            ``(T, B)``        saturation current at full
                                           drive [A]
``vth``                  ``(T, B)``        threshold voltage magnitude
``nominal_ov``           ``(T, B)``        overdrive of the prefactor
``alpha``                ``(T, B)``        alpha-power saturation index
``accumulation_table``   ``(1+R, K+1)``    rows of ``[x | -x | 0]``
                                           summed into the supply and
                                           each integrated net, in the
                                           reference loop's order
``scale``                ``(K, B)``        1.0 (supply), capacitances
``floor/ceiling``        ``(K, B)``        rail clamp (``-/+inf`` for
                                           the supply charge)
``pwl times/vals``       ``(B, S, P)``     padded source breakpoints
=======================  ================  ==============================

Per-case quantities carry the batch axis, so corners may vary device
parameters, loading, supply and stimuli; the topology (net list, device
connectivity and polarity, driven nets) must match across the batch.
One sub-step (:meth:`CompiledTransientBatch._step_plan`) is a fixed
sequence of ``out=`` ufunc calls on buffers allocated once per
:meth:`~CompiledTransientBatch.integrate`; ``docs/architecture.md``
explains why each is bit-identical to the reference loop.

Stability sub-stepping rule
---------------------------
Output samples land every ``time_step``; internally each sample interval
is integrated in sub-steps of ``min(time_step, max(2 fs, stop_time /
SUBSTEP_BUDGET))``: at most ``SUBSTEP_BUDGET`` (40000) sub-steps per run,
unless ``time_step`` is finer still (a sub-step is never longer than
``time_step``), and none shorter than 2 fs unless ``time_step`` is.
That keeps the explicit integration stable for the RC time constants of
gate-sized circuits without making long runs unaffordable; the rule
lives in :func:`stability_substep` and is shared verbatim by the engine
and its reference.

Batch-axis semantics
--------------------
The batch axis is first-class: :func:`run_transient_batch` takes a list of
:class:`SimulationCase` and returns one :class:`TransientResult` per case,
in order.

>>> from repro.circuit import (SimulationCase, build_inverter_chain,
...                            cmos_inverter, run_transient_batch,
...                            step_source)
>>> chain = build_inverter_chain(cmos_inverter(), stages=1, fanout=1, vdd=1.0)
>>> cases = [SimulationCase(chain,
...                         {"in": step_source(1.0, 2e-12, slew)},
...                         initial_conditions={"n1": 1.0})
...          for slew in (1e-12, 4e-12)]          # an input-slew sweep
>>> fast, slow = run_transient_batch(cases, stop_time=50e-12,
...                                  time_step=0.5e-12)
>>> bool(fast.voltage("n1")[-1] < 0.1 and slow.voltage("n1")[-1] < 0.1)
True
>>> bool(fast.crossing_time("n1", 0.5, rising=False) <
...      slow.crossing_time("n1", 0.5, rising=False))
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..devices.cnfet import CNFET
from ..devices.mosfet import MOSFET
from ..errors import SimulationError
from .inverter import Inverter
from .netlist import GND, VDD, TransistorNetlist

#: Floor applied to node capacitances so the explicit integrator stays stable
#: even on nets with negligible extracted capacitance [F].
MINIMUM_NODE_CAPACITANCE = 1.0e-18

#: Smallest internal sub-step the stability rule will choose [s].
MINIMUM_SUBSTEP_S = 2.0e-15

#: Upper bound on the number of sub-steps per run implied by the rule.
SUBSTEP_BUDGET = 40000.0


def stability_substep(stop_time: float, time_step: float) -> float:
    """The sub-step rule shared by the engine and its reference.

    At most ``SUBSTEP_BUDGET`` sub-steps per run, unless ``time_step`` is
    finer still: a sub-step is never longer than ``time_step``, and never
    shorter than ``MINIMUM_SUBSTEP_S`` unless ``time_step`` is.
    How many land in one output sample depends on the caller's
    ``time_step``: the characterisation grids sample every ``stop / 8000``
    or coarser, so they take 5 or more (5 at the paper's settings).

    >>> stability_substep(stop_time=100e-12, time_step=1e-12) == 2.5e-15
    True
    >>> stability_substep(stop_time=4e-12, time_step=1e-12)  # 2 fs floor
    2e-15
    >>> stability_substep(stop_time=100e-12, time_step=1e-15)  # <= time_step
    1e-15
    """
    return min(time_step, max(MINIMUM_SUBSTEP_S, stop_time / SUBSTEP_BUDGET))


@dataclass
class PiecewiseLinearSource:
    """A piecewise-linear voltage source (SPICE ``PWL`` equivalent)."""

    points: Sequence[Tuple[float, float]]

    def __post_init__(self):
        if not self.points:
            raise SimulationError("A PWL source needs at least one point")
        times = [t for t, _ in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise SimulationError("PWL time points must be non-decreasing")

    def value(self, time: float) -> float:
        points = list(self.points)
        if time <= points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if time <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        return points[-1][1]


def step_source(vdd: float, delay: float, rise_time: float,
                falling: bool = False) -> PiecewiseLinearSource:
    """A single rising (or falling) edge."""
    low, high = (vdd, 0.0) if falling else (0.0, vdd)
    return PiecewiseLinearSource([(0.0, low), (delay, low), (delay + rise_time, high)])


def pulse_source(vdd: float, delay: float, rise_time: float, width: float) -> PiecewiseLinearSource:
    """A single full pulse (rise, hold, fall)."""
    return PiecewiseLinearSource(
        [
            (0.0, 0.0),
            (delay, 0.0),
            (delay + rise_time, vdd),
            (delay + rise_time + width, vdd),
            (delay + 2 * rise_time + width, 0.0),
        ]
    )


def constant_source(level: float) -> PiecewiseLinearSource:
    """A DC level (used to hold side inputs during characterisation)."""
    return PiecewiseLinearSource([(0.0, level)])


@dataclass
class TransientResult:
    """Waveforms of a transient run."""

    time: np.ndarray
    waveforms: Dict[str, np.ndarray]
    supply_charge: float      # total charge delivered by Vdd [C]
    vdd: float

    def voltage(self, net: str) -> np.ndarray:
        try:
            return self.waveforms[net]
        except KeyError:
            raise SimulationError(
                f"No waveform recorded for net {net!r}; available: "
                f"{sorted(self.waveforms)}"
            ) from None

    def crossing_time(self, net: str, level: float, rising: Optional[bool] = None,
                      after: float = 0.0) -> float:
        """First time the net crosses ``level`` (optionally in a specific
        direction) at or after ``after``.

        A crossing inside a segment that straddles ``after`` only counts
        when the interpolated crossing instant itself is at or after
        ``after``, so the returned time is never earlier than ``after``
        (``propagation_delay`` relies on this).
        """
        voltages = self.voltage(net)
        times = self.time
        for index in range(1, len(times)):
            if times[index] < after:
                continue
            previous, current = voltages[index - 1], voltages[index]
            crossed_up = previous < level <= current
            crossed_down = previous > level >= current
            if rising is True and not crossed_up:
                continue
            if rising is False and not crossed_down:
                continue
            if crossed_up or crossed_down:
                # A strict crossing implies previous != current, so the
                # interpolation denominator is never zero.
                fraction = (level - previous) / (current - previous)
                crossing = times[index - 1] + fraction * (
                    times[index] - times[index - 1]
                )
                # A segment straddling ``after`` may cross before it; a
                # linear segment crosses a level at most once, so such a
                # crossing is simply outside the window — keep looking.
                if crossing >= after:
                    return crossing
        raise SimulationError(f"Net {net!r} never crosses {level} V after {after}")

    def propagation_delay(self, input_net: str, output_net: str,
                          vdd: Optional[float] = None) -> float:
        """50 %-to-50 % propagation delay between two nets."""
        vdd = self.vdd if vdd is None else vdd
        level = vdd / 2.0
        t_in = self.crossing_time(input_net, level)
        t_out = self.crossing_time(output_net, level, after=t_in)
        return t_out - t_in

    @property
    def supply_energy(self) -> float:
        """Energy drawn from the supply during the run [J]."""
        return self.supply_charge * self.vdd


# ---------------------------------------------------------------------------
# Batch engine: cases, compilation, vectorized integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationCase:
    """One corner of a batch transient run.

    A case bundles a netlist (which carries the device instances, loading
    and supply of that corner), the stimulus of every driven net, and
    optional initial conditions.  All cases of one batch must share the
    same *topology* — net names and order, device connectivity and
    polarity, and the set of driven nets — while device parameters,
    capacitances, supply voltage, stimuli and initial conditions are free
    to vary per case.
    """

    netlist: TransistorNetlist
    sources: Mapping[str, PiecewiseLinearSource]
    initial_conditions: Optional[Mapping[str, float]] = None


def _device_power_law(device) -> Tuple[float, float, float, float]:
    """Lower one compact model to ``(prefactor, vth, nominal_ov, alpha)``.

    ``prefactor`` is the saturation current at nominal overdrive, built
    with the same association order as the scalar ``ids`` so the batch
    product ``prefactor * ratio ** alpha`` is bit-identical to the loop
    engine's evaluation.
    """
    params = device.parameters
    if isinstance(device, CNFET):
        prefactor = (
            device.num_tubes
            * params.on_current_per_tube
            * (device.screening ** params.current_screening_power)
        )
    elif isinstance(device, MOSFET):
        prefactor = params.saturation_current_per_um * device.width_um
    else:  # pragma: no cover - TransistorInstance already validates this
        raise SimulationError(
            f"Unsupported device type {type(device).__name__}"
        )
    nominal_ov = params.nominal_vdd - params.threshold_voltage
    return prefactor, params.threshold_voltage, nominal_ov, params.alpha


class CompiledTransientBatch:
    """A batch of topology-identical cases lowered to structure arrays.

    Compile once, integrate many times: the constructor performs all
    name-based work (net indexing, terminal lowering, capacitance
    extraction, PWL padding); :meth:`integrate` then runs the explicit
    sub-stepped integration purely on arrays.
    """

    def __init__(self, cases: Sequence[SimulationCase]):
        if not cases:
            raise SimulationError("A batch needs at least one SimulationCase")
        self.cases = list(cases)
        first = self.cases[0].netlist
        self._topology_nets: List[str] = first.nets()
        self.source_nets: List[str] = list(self.cases[0].sources)
        # A source may drive a net no device references (the reference loop
        # simply records its waveform); give such nets state columns too so
        # the engines stay bit-identical.
        self.net_names: List[str] = self._topology_nets + [
            net for net in self.source_nets if net not in self._topology_nets
        ]
        self._validate_topology()

        batch = len(self.cases)
        self.batch_size = batch
        transistors = first.transistors
        devices = len(transistors)

        # -- state rows: [supply charge | integrated | sources | rails] ---
        driven = set(self.source_nets)
        self.integrated_nets = [
            net for net in self._topology_nets
            if net not in (VDD, GND) and net not in driven
        ]
        placed = driven.union(self.integrated_nets)
        order = self.integrated_nets + self.source_nets + [
            net for net in self.net_names if net not in placed
        ]
        row = {net: 1 + i for i, net in enumerate(order)}
        self.waveform_col = {net: row[net] - 1 for net in self.net_names}
        half = 1 + len(order)
        block = 1 + len(self.integrated_nets)
        self._half, self._block = half, block
        self._source_rows = slice(block, block + len(self.source_nets))

        # -- terminal reads in sigma space: a p-type device's terminals
        # read the negated half, so both polarities conduct for a high
        # gate relative to the lower of drain and source.
        flip = [0 if t.polarity == "n" else half for t in transistors]
        self.terminal_rows = np.array(
            [row[t.gate] + f for t, f in zip(transistors, flip)]
            + [row[t.drain] + f for t, f in zip(transistors, flip)]
            + [row[t.source] + f for t, f in zip(transistors, flip)],
            dtype=np.intp,
        )

        # -- per-case device parameters (T, B) ----------------------------
        params = np.array(
            [
                [_device_power_law(t.device) for t in case.netlist.transistors]
                for case in self.cases
            ],
            dtype=float,
        ).reshape(batch, devices, 4)
        self.prefactor, self.vth, self.nominal_ov, self.alpha = (
            np.ascontiguousarray(params[:, :, k].T) for k in range(4)
        )

        # -- accumulation table (1 + R, K + 1) ----------------------------
        # ``contributions`` holds ``[x | -x | 0]`` where ``x`` is each
        # device's signed current in sigma space; the drain current is
        # ``+x`` for n-type and ``-x`` for p-type.  Column 0 collects the
        # supply current, column 1 + i integrated net i; entries follow the
        # reference loop's interleaved slot order (device by device, drain
        # then source), so summing the rank slabs in order reproduces its
        # sequential ``+=`` exactly.  Row 0, short columns and the spare
        # last column point at the trailing zero: every sum starts from
        # +0.0, and the spare column keeps the rank axis out of NumPy's
        # inner reduction loop, which would sum it pairwise.
        pad = 2 * devices
        entries: List[List[int]] = [[] for _ in range(block)]
        for k, t in enumerate(transistors):
            plus, minus = (k, devices + k) if t.polarity == "n" else (devices + k, k)
            if row[t.drain] < block:
                entries[row[t.drain]].append(minus)
            if row[t.source] < block:
                entries[row[t.source]].append(plus)
            if t.drain == VDD:
                entries[0].append(plus)
            if t.source == VDD:
                entries[0].append(minus)
        ranks = max(len(column) for column in entries)
        self.accumulation_table = np.full((1 + ranks, block + 1), pad, dtype=np.intp)
        for col, column in enumerate(entries):
            self.accumulation_table[1:1 + len(column), col] = column

        # -- node update: scale and clamp bounds per block row (K, B) -----
        self.vdd = np.array([case.netlist.vdd for case in self.cases])
        capacitance = np.array(
            [
                [
                    max(case.netlist.node_capacitance(net), MINIMUM_NODE_CAPACITANCE)
                    for net in self.integrated_nets
                ]
                for case in self.cases
            ],
            dtype=float,
        ).reshape(batch, block - 1)
        self.scale = np.vstack([np.ones((1, batch)), capacitance.T])
        self.floor = np.vstack([
            np.full((1, batch), -np.inf),
            np.broadcast_to(-0.1 * self.vdd, (block - 1, batch)),
        ])
        self.ceiling = np.vstack([
            np.full((1, batch), np.inf),
            np.broadcast_to(1.1 * self.vdd, (block - 1, batch)),
        ])

        # -- initial state (2 * half, B): [v | -v] ------------------------
        positive = np.zeros((half, batch))
        positive[row[VDD]] = self.vdd
        for case_i, case in enumerate(self.cases):
            conditions = dict(case.initial_conditions or {})
            for net in self.integrated_nets:
                positive[row[net], case_i] = conditions.get(net, 0.0)
            for net in self.source_nets:
                positive[row[net], case_i] = case.sources[net].value(0.0)
        self.initial_state = np.concatenate([positive, -positive])

        # -- padded PWL tables (B, S, P) ----------------------------------
        longest = 1
        for case in self.cases:
            for net in self.source_nets:
                longest = max(longest, len(case.sources[net].points))
        shape = (batch, len(self.source_nets), longest)
        self.pwl_times = np.full(shape, np.inf)
        self.pwl_values = np.zeros(shape)
        for case_i, case in enumerate(self.cases):
            for source_i, net in enumerate(self.source_nets):
                points = list(case.sources[net].points)
                for point_i, (t, v) in enumerate(points):
                    self.pwl_times[case_i, source_i, point_i] = t
                    self.pwl_values[case_i, source_i, point_i] = v
                # Pad with the final value so interpolation into the pad
                # region reproduces the "hold last value" rule exactly.
                self.pwl_values[case_i, source_i, len(points):] = points[-1][1]

    # -- validation -------------------------------------------------------

    def _validate_topology(self) -> None:
        reference = self.cases[0].netlist
        signature = [
            (t.gate, t.drain, t.source, t.polarity) for t in reference.transistors
        ]
        for case in self.cases:
            missing = [
                net for net in case.netlist.inputs if net not in case.sources
            ]
            if missing:
                raise SimulationError(
                    f"No source provided for input nets {missing}"
                )
            if case.netlist.nets() != self._topology_nets:
                raise SimulationError(
                    "Batch cases must share one topology: net lists differ "
                    f"({case.netlist.name!r} vs {reference.name!r})"
                )
            if [
                (t.gate, t.drain, t.source, t.polarity)
                for t in case.netlist.transistors
            ] != signature:
                raise SimulationError(
                    "Batch cases must share one topology: device "
                    f"connectivity differs ({case.netlist.name!r} vs "
                    f"{reference.name!r})"
                )
            if set(case.sources) != set(self.source_nets):
                raise SimulationError(
                    "Batch cases must drive the same nets; "
                    f"{sorted(case.sources)} != {sorted(self.source_nets)}"
                )

    # -- stimulus ---------------------------------------------------------

    def _evaluate_pwl(self, case_i: int, source_i: int,
                      times: np.ndarray) -> np.ndarray:
        """One source's values at the given instants: ``(len(times),)``.

        Vectorized mirror of :meth:`PiecewiseLinearSource.value`: locate
        the first breakpoint at or after ``t`` (``searchsorted`` over the
        padded breakpoints) and interpolate with the same expression;
        padded entries (``t = inf``, value held) resolve to the last real
        value, and ``t`` at or before the first breakpoint resolves to the
        first value through the degenerate-segment branch.
        """
        longest = self.pwl_times.shape[-1]
        breakpoints = self.pwl_times[case_i, source_i]
        levels = self.pwl_values[case_i, source_i]
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.searchsorted(breakpoints, times, side="left")
            hi = np.minimum(upper, longest - 1)
            lo = np.maximum(upper - 1, 0)
            t0, t1 = breakpoints[lo], breakpoints[hi]
            v0, v1 = levels[lo], levels[hi]
            interpolated = v0 + (v1 - v0) * (times - t0) / (t1 - t0)
            return np.where(t1 == t0, v1, interpolated)

    def _source_values(self, times: np.ndarray) -> np.ndarray:
        """Evaluate every PWL source at every instant: ``(len(times), B, S)``.

        Evaluated one (case, source) pair at a time, so no temporary
        exceeds ``len(times)`` elements beyond the returned array itself.
        """
        batch, sources, _ = self.pwl_times.shape
        values = np.empty((len(times), batch, sources))
        for case_i in range(batch):
            for source_i in range(sources):
                values[:, case_i, source_i] = self._evaluate_pwl(
                    case_i, source_i, times
                )
        return values

    def _compressed_source_schedule(
        self, step_times: List[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Source values for only the sub-steps where any source changes.

        Returns ``(changed, values)``: a boolean per sub-step and a
        ``(changed.sum(), B, S)`` value matrix for exactly those steps.
        Stimuli are flat outside their PWL edges, so this keeps the
        precomputed stimulus table a few edge-windows long instead of
        one row per sub-step (which at 40000 sub-steps x wide batches
        costs hundreds of MB).
        """
        times = np.asarray(step_times)
        batch, sources, _ = self.pwl_times.shape
        changed = np.zeros(len(times), dtype=bool)
        changed[0] = True
        for case_i in range(batch):
            for source_i in range(sources):
                values = self._evaluate_pwl(case_i, source_i, times)
                changed[1:] |= values[1:] != values[:-1]
        return changed, self._source_values(times[changed])

    # -- integration ------------------------------------------------------

    def integrate(self, stop_time: float, time_step: float) -> List[TransientResult]:
        """Integrate every case of the batch over one shared time base."""
        if stop_time <= 0 or time_step <= 0:
            raise SimulationError("stop_time and time_step must be positive")
        sample_count = int(math.ceil(stop_time / time_step)) + 1
        times = np.linspace(0.0, stop_time, sample_count)
        substep = stability_substep(stop_time, time_step)

        # The sub-step schedule is deterministic, so enumerate it (and
        # evaluate every PWL source over it) once, up front.  The schedule
        # loop mirrors the reference loop token for token: sources are read at
        # the *start* of each sub-step, and the sample recorded at a
        # boundary still holds the source value of the previous sub-step.
        step_times: List[float] = []
        step_sizes: List[float] = []
        steps_per_segment: List[int] = []
        for sample_index, sample_time in enumerate(times[:-1]):
            segment_end = times[sample_index + 1]
            time = sample_time
            count = 0
            while time < segment_end - 1e-21:
                dt = min(substep, segment_end - time)
                step_times.append(time)
                step_sizes.append(dt)
                count += 1
                time += dt
            steps_per_segment.append(count)
        changed: Optional[List[bool]] = None
        if self.source_nets and step_times:
            mask, values = self._compressed_source_schedule(step_times)
            changed = mask.tolist()
            levels = values.transpose(0, 2, 1)                 # (C, S, B)
            source_rows = np.stack([levels, -levels], axis=1)  # (C, 2, S, B)
        # Sub-step sizes as 0-d arrays: a Python float operand is converted
        # on every ufunc call.
        sizes: Dict[float, np.ndarray] = {}
        step_dts = [sizes.setdefault(dt, np.array(dt)) for dt in step_sizes]

        advance, state = self._step_plan()
        halves = state.reshape(2, self._half, self.batch_size)
        recorded = state[1:self._half]                    # (N, B), net rows
        waveforms = np.empty((sample_count,) + recorded.shape)

        step = 0
        write_index = 0
        for sample_index in range(sample_count):
            waveforms[sample_index] = recorded
            if sample_index == sample_count - 1:
                break
            for _ in range(steps_per_segment[sample_index]):
                if changed is not None and changed[step]:
                    halves[:, self._source_rows] = source_rows[write_index]
                    write_index += 1
                advance(step_dts[step])
                step += 1

        supply_charge = state[0]
        return [
            TransientResult(
                time=times,
                waveforms={
                    net: waveforms[:, self.waveform_col[net], case_i]
                    for net in self.net_names
                },
                supply_charge=float(supply_charge[case_i]),
                vdd=float(self.vdd[case_i]),
            )
            for case_i in range(self.batch_size)
        ]

    def _step_plan(self):
        """Fresh state and buffers, and the fused sub-step that updates them.

        Returns ``(advance, state)``: ``advance(dt)`` moves every case one
        sub-step of ``dt`` (a 0-d array) forward, in place on ``state``.
        Each call is a fixed sequence of ``out=`` ufunc calls on the
        preallocated buffers below; it is the elementwise mirror of the
        reference loop's ``_channel_current`` and node update
        (``docs/architecture.md`` explains why each step is bit-identical).
        ``take`` runs in ``mode="wrap"`` (the indices are in range) because
        the default mode copies through a temporary instead of writing
        ``out`` directly.
        """
        batch = self.batch_size
        devices = self.prefactor.shape[0]
        block = self._block
        state = self.initial_state.copy()                  # (2 * half, B)
        charge_and_nets = state[:block]
        mirror = state[self._half:self._half + block]
        terminal_rows = self.terminal_rows
        table = self.accumulation_table
        prefactor, vth = self.prefactor, self.vth
        nominal_ov, alpha = self.nominal_ov, self.alpha
        scale, floor, ceiling = self.scale, self.floor, self.ceiling

        terms = np.empty((3 * devices, batch))
        gate = terms[:devices]
        drain = terms[devices:2 * devices]
        source = terms[2 * devices:]
        overdrive = np.empty((devices, batch))
        conducting = np.empty((devices, batch))
        span = np.empty((devices, batch))
        triode = np.empty((devices, batch))
        current = np.empty((devices, batch))
        contributions = np.zeros((2 * devices + 1, batch))
        forward = contributions[:devices]
        backward = contributions[devices:2 * devices]
        gathered = np.empty(table.shape + (batch,))
        sums = np.empty((table.shape[1], batch))
        increment = sums[:block]
        # Constants as 0-d arrays, like the sub-step sizes: a Python float
        # operand is converted on every ufunc call.
        zero, two = np.array(0.0), np.array(2.0)
        # Any positive overdrive is >= the smallest subnormal, so
        # ``max(overdrive, tiny)`` is the overdrive itself on conducting
        # lanes and a positive divisor (of a zero triode numerator)
        # elsewhere.
        tiny = np.array(np.nextafter(0.0, 1.0))

        def advance(dt: np.ndarray) -> None:
            state.take(terminal_rows, axis=0, out=terms, mode="wrap")
            # vgs = g' - min(d', s'); vds = |d' - s'|  (sigma space)
            np.minimum(drain, source, out=overdrive)
            np.subtract(gate, overdrive, out=overdrive)
            np.subtract(overdrive, vth, out=overdrive)
            np.maximum(overdrive, zero, out=conducting)
            np.maximum(overdrive, tiny, out=overdrive)
            np.subtract(drain, source, out=span)
            # triode ratio vds / overdrive, exactly 1 in saturation and 0
            # on lanes that do not conduct
            np.absolute(span, out=triode)
            np.minimum(triode, conducting, out=triode)
            np.divide(triode, overdrive, out=triode)
            # 0 ** alpha is 0 on lanes that do not conduct (the device
            # models validate alpha > 0)
            np.divide(conducting, nominal_ov, out=current)
            np.power(current, alpha, out=current)
            np.multiply(prefactor, current, out=current)
            np.multiply(current, triode, out=current)
            np.subtract(two, triode, out=triode)
            np.multiply(current, triode, out=current)
            np.copysign(current, span, out=forward)
            np.negative(forward, out=backward)
            # per-net and supply sums, rank slab by rank slab from +0.0
            contributions.take(table, axis=0, out=gathered, mode="wrap")
            np.add.reduce(gathered, axis=0, out=sums)
            np.multiply(increment, dt, out=increment)
            np.divide(increment, scale, out=increment)
            np.add(charge_and_nets, increment, out=charge_and_nets)
            np.maximum(charge_and_nets, floor, out=charge_and_nets)
            np.minimum(charge_and_nets, ceiling, out=charge_and_nets)
            np.negative(charge_and_nets, out=mirror)

        return advance, state


def run_transient_batch(cases: Sequence[SimulationCase], stop_time: float,
                        time_step: float) -> List[TransientResult]:
    """Simulate many corners in one vectorized integration.

    Every case must share one topology (see :class:`SimulationCase`) and
    the whole batch shares one time base; each case keeps its own device
    parameters, loading, supply, stimuli and initial conditions.  Returns
    one :class:`TransientResult` per case, in order, bit-identical to
    running each case through :meth:`TransientSimulator.run_reference`.
    """
    return CompiledTransientBatch(cases).integrate(stop_time, time_step)


class TransientSimulator:
    """Explicit nodal transient solver for a :class:`TransistorNetlist`.

    ``run`` integrates one case as a batch of one on the batch engine;
    ``run_reference`` is the scalar per-substep oracle.  Both produce
    bit-identical waveforms and supply charge.
    """

    def __init__(self, netlist: TransistorNetlist,
                 sources: Mapping[str, PiecewiseLinearSource],
                 initial_conditions: Optional[Mapping[str, float]] = None):
        self.netlist = netlist
        self.sources = dict(sources)
        missing = [net for net in netlist.inputs if net not in self.sources]
        if missing:
            raise SimulationError(f"No source provided for input nets {missing}")
        self.initial_conditions = dict(initial_conditions or {})

    def as_case(self) -> SimulationCase:
        """This simulator's configuration as a batchable case."""
        return SimulationCase(
            netlist=self.netlist,
            sources=self.sources,
            initial_conditions=self.initial_conditions,
        )

    def run(self, stop_time: float, time_step: float) -> TransientResult:
        """Integrate from 0 to ``stop_time`` with output samples every
        ``time_step`` (internally sub-stepped for stability)."""
        return run_transient_batch([self.as_case()], stop_time, time_step)[0]

    def run_reference(self, stop_time: float,
                      time_step: float) -> TransientResult:
        """The scalar reference integrator (one net dict, one device at a
        time) — the shape the batch engine mirrors operation for
        operation."""
        if stop_time <= 0 or time_step <= 0:
            raise SimulationError("stop_time and time_step must be positive")
        netlist = self.netlist
        vdd = netlist.vdd
        internal = [
            net for net in netlist.nets()
            if net not in (VDD, GND) and net not in self.sources
        ]
        capacitance = {
            net: max(netlist.node_capacitance(net), MINIMUM_NODE_CAPACITANCE)
            for net in internal
        }
        voltages: Dict[str, float] = {VDD: vdd, GND: 0.0}
        for net in internal:
            voltages[net] = self.initial_conditions.get(net, 0.0)
        for net, source in self.sources.items():
            voltages[net] = source.value(0.0)

        sample_count = int(math.ceil(stop_time / time_step)) + 1
        times = np.linspace(0.0, stop_time, sample_count)
        waveforms = {net: np.zeros(sample_count) for net in voltages}
        supply_charge = 0.0

        substep = stability_substep(stop_time, time_step)

        for sample_index, sample_time in enumerate(times):
            for net, value in voltages.items():
                waveforms[net][sample_index] = value
            if sample_index == len(times) - 1:
                break
            segment_end = times[sample_index + 1]
            time = sample_time
            while time < segment_end - 1e-21:
                dt = min(substep, segment_end - time)
                for net, source in self.sources.items():
                    voltages[net] = source.value(time)
                currents = {net: 0.0 for net in internal}
                supply_current = 0.0
                for transistor in netlist.transistors:
                    drain_v = voltages[transistor.drain]
                    source_v = voltages[transistor.source]
                    gate_v = voltages[transistor.gate]
                    current = self._channel_current(
                        transistor, gate_v, drain_v, source_v
                    )
                    # ``current`` flows from the higher-potential terminal to
                    # the lower one through the channel.
                    if transistor.drain in currents:
                        currents[transistor.drain] -= current[0]
                    if transistor.source in currents:
                        currents[transistor.source] -= current[1]
                    # Net supply current: devices back-driving Vdd return
                    # charge, so contributions must be summed before
                    # integrating rather than clamped per device.
                    if transistor.drain == VDD:
                        supply_current += current[0]
                    if transistor.source == VDD:
                        supply_current += current[1]
                supply_charge += supply_current * dt
                for net in internal:
                    voltages[net] += currents[net] * dt / capacitance[net]
                    voltages[net] = min(max(voltages[net], -0.1 * vdd), 1.1 * vdd)
                time += dt
        return TransientResult(times, waveforms, supply_charge, vdd)

    @staticmethod
    def _channel_current(transistor, gate_v: float, drain_v: float,
                         source_v: float) -> Tuple[float, float]:
        """Return (current out of drain, current out of source).

        The compact models report a magnitude for a given (vgs, vds); the
        sign convention here is that current flows through the channel from
        the higher-potential terminal to the lower-potential one.
        """
        device = transistor.device
        if device.polarity == "n":
            if drain_v >= source_v:
                magnitude = device.ids(gate_v - source_v, drain_v - source_v)
                return (+magnitude, -magnitude)
            magnitude = device.ids(gate_v - drain_v, source_v - drain_v)
            return (-magnitude, +magnitude)
        # p-type: conducts when the gate is low relative to source
        if drain_v <= source_v:
            magnitude = device.ids(gate_v - source_v, drain_v - source_v)
            return (-magnitude, +magnitude)
        magnitude = device.ids(gate_v - drain_v, source_v - drain_v)
        return (+magnitude, -magnitude)


# ---------------------------------------------------------------------------
# Inverter-chain convenience used by the FO4 experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverterChainResult:
    """Measurements from a simulated FO4 inverter chain."""

    mid_stage_delay_s: float
    energy_per_cycle_j: float
    result: TransientResult


def build_inverter_chain(inverter: Inverter, stages: int, fanout: int,
                         vdd: float) -> TransistorNetlist:
    """A chain of identical inverters where each stage additionally drives
    ``fanout - 1`` copies of its own input capacitance (so the loading seen
    by every stage is FO-``fanout``)."""
    netlist = TransistorNetlist(f"fo{fanout}_chain", vdd=vdd)
    extra_load = (fanout - 1) * inverter.input_capacitance()
    previous_net = "in"
    for stage in range(stages):
        out_net = f"n{stage + 1}"
        netlist.add_transistor(
            f"MN{stage}", inverter.pull_down, gate=previous_net,
            drain=out_net, source=GND,
        )
        netlist.add_transistor(
            f"MP{stage}", inverter.pull_up, gate=previous_net,
            drain=out_net, source=VDD,
        )
        if extra_load > 0:
            netlist.add_capacitor(f"CL{stage}", out_net, extra_load)
        previous_net = out_net
    netlist.declare_io(["in"], [previous_net])
    return netlist


def _chain_case(inverter: Inverter, vdd: float, stages: int,
                fanout: int) -> Tuple[SimulationCase, float]:
    """One FO-``fanout`` chain corner and its analytical delay estimate."""
    from .fo4 import fo4_metrics  # local import to avoid a module cycle

    netlist = build_inverter_chain(inverter, stages, fanout, vdd)
    estimate = fo4_metrics(inverter, vdd, fanout).delay_s
    edge = max(estimate * 0.1, 1.0e-13)
    settle = estimate * (stages + 6)
    source = pulse_source(vdd, delay=2 * estimate, rise_time=edge, width=settle)
    # Odd stages invert: precondition internal nodes to their DC values for
    # a low input.
    initial = {
        f"n{stage + 1}": vdd if stage % 2 == 0 else 0.0
        for stage in range(stages)
    }
    case = SimulationCase(netlist, {"in": source}, initial_conditions=initial)
    return case, estimate


def _measure_chain(result: TransientResult, stages: int) -> InverterChainResult:
    """Mid-stage delay and per-stage energy of one simulated chain."""
    delay = result.propagation_delay("n2", "n3")
    energy = result.supply_energy / stages
    return InverterChainResult(
        mid_stage_delay_s=delay,
        energy_per_cycle_j=energy,
        result=result,
    )


def simulate_inverter_chain(inverter: Inverter, vdd: float = 1.0, stages: int = 5,
                            fanout: int = 4) -> InverterChainResult:
    """Simulate the paper's five-stage FO4 chain and measure the mid stage.

    The measured stage is stage 3 (index 2), exactly as in Case study 1.
    Energy per cycle is the supply energy of one full input pulse divided by
    the number of switching stages, attributed to the measured stage's load.
    """
    case, estimate = _chain_case(inverter, vdd, stages, fanout)
    simulator = TransientSimulator(case.netlist, case.sources,
                                   initial_conditions=case.initial_conditions)
    settle = estimate * (stages + 6)
    stop = 2 * estimate + 2 * settle
    result = simulator.run(stop_time=stop,
                           time_step=max(estimate / 50.0, 1.0e-14))
    return _measure_chain(result, stages)


def _per_corner_supplies(vdd, corners: int) -> List[float]:
    """Normalise a scalar-or-per-corner supply argument to one float per
    corner (accepts any iterable, e.g. a NumPy array or range)."""
    if isinstance(vdd, (int, float)):
        return [float(vdd)] * corners
    try:
        supplies = [float(value) for value in vdd]
    except TypeError:
        raise SimulationError(
            f"vdd must be a number or an iterable of numbers, got {vdd!r}"
        ) from None
    if len(supplies) != corners:
        raise SimulationError(
            f"Got {corners} corners but {len(supplies)} supplies"
        )
    return supplies


def simulate_inverter_chain_batch(
    inverters: Sequence[Inverter],
    vdd: float = 1.0,
    stages: int = 5,
    fanout: int = 4,
) -> List[InverterChainResult]:
    """Simulate many inverter corners' FO-``fanout`` chains in one batch.

    Every corner gets its own chain netlist and a stimulus timed from its
    own analytical delay estimate; the shared time base covers the slowest
    corner at the resolution of the fastest, so one vectorized integration
    measures all corners (e.g. the CNT-count sweep of Figure 7, with the
    CMOS reference riding in the same batch).

    ``vdd`` may be a scalar (shared) or a sequence per corner.
    """
    if not inverters:
        raise SimulationError("simulate_inverter_chain_batch needs >= 1 corner")
    if stages < 3:
        raise SimulationError("The FO4 chain needs at least 3 stages")
    supplies = _per_corner_supplies(vdd, len(inverters))
    cases: List[SimulationCase] = []
    estimates: List[float] = []
    for inverter, supply in zip(inverters, supplies):
        case, estimate = _chain_case(inverter, supply, stages, fanout)
        cases.append(case)
        estimates.append(estimate)
    slowest = max(estimates)
    settle = slowest * (stages + 6)
    stop = 2 * slowest + 2 * settle
    time_step = max(min(estimates) / 50.0, 1.0e-14)
    results = run_transient_batch(cases, stop_time=stop, time_step=time_step)
    return [_measure_chain(result, stages) for result in results]
