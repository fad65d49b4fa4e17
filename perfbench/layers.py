"""Layer spans installed from outside ``src/``, and per-layer numbers
derived from the resulting ``repro-trace/v1`` document.

:func:`install` wraps each engine entry point in a
:func:`repro.obs.trace.span`: class methods are replaced on the class,
functions are re-bound in every module that calls them by name.  The
wrappers only observe (they return the wrapped call's value untouched)
and are no-ops without an active tracer.  Spans the program already
records (``study:<name>``, ``sweep:<engine>``, ``sweep.plan``,
``sweep.execute``, ``scheduler.*``, ``circuit``, ``job.run``) are used
as they are.

:func:`layer_metrics` is the single measurement path: every per-layer
number the benchmark prints is computed here from one trace document.
"""

from __future__ import annotations

import functools
import statistics
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The registered studies, in registry order (``study.<name>_s`` keys).
STUDIES = ("table1", "fig2", "immunity_sweep", "fig3", "fig4", "fig7",
           "fo4_transient", "characterization", "pitch", "fig8", "edp",
           "circuit")

#: Span-name prefix -> the repo module (layer) the span's time belongs to.
#: Spans matching none (the benchmark's own ``workload.pass`` root) are
#: unattributed.
LAYER_OF_PREFIX = (
    ("kernel.", "circuit.simulator"),
    ("characterize.", "cells.characterize"),
    ("circuit_study.", "circuit_study"),
    ("immunity.", "immunity"),
    ("study:", "study"),
    ("sweep:", "study"),
    ("sweep.", "study"),
    ("cache.", "runtime.cache"),
    ("scheduler.", "runtime.scheduler"),
    ("job.", "service"),
    ("client.", "service"),
)

#: Spans the program records under a bare name.
LAYER_OF_NAME = {"circuit": "circuit_study"}

LAYERS = ("study", "runtime.cache", "runtime.scheduler", "circuit.simulator",
          "cells.characterize", "circuit_study", "immunity", "service")

#: Short metric prefix of each layer's self time.
SELF_METRIC = {
    "study": "study.self_s",
    "runtime.cache": "cache.self_s",
    "runtime.scheduler": "scheduler.self_s",
    "circuit.simulator": "kernel.self_s",
    "cells.characterize": "characterize.self_s",
    "circuit_study": "circuit_study.self_s",
    "immunity": "immunity.self_s",
    "service": "service.self_s",
}


def layer_of(name: str) -> Optional[str]:
    """The layer a span name belongs to, or ``None`` (unattributed)."""
    if name in LAYER_OF_NAME:
        return LAYER_OF_NAME[name]
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return None


# -- wrappers ---------------------------------------------------------------

def _wrap(fn: Callable, span_name: str,
          observe: Optional[Callable[..., None]] = None) -> Callable:
    """``fn`` inside a span; ``observe(record, result, *args, **kwargs)``
    annotates the span after the call returns."""
    from repro.obs import trace as obs_trace

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs_trace.span(span_name) as record:
            result = fn(*args, **kwargs)
            if record is not None and observe is not None:
                observe(record, result, *args, **kwargs)
            return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _rebind(modules: Iterable[Any], name: str, wrapper: Callable) -> None:
    for module in modules:
        if not hasattr(module, name):     # the entry point moved: say so
            raise AttributeError(f"{module.__name__} has no {name}")
        setattr(module, name, wrapper)


def _kernel_compile(record, result, self, cases) -> None:
    record.annotate(batch=len(cases))


def _kernel_integrate(record, result, self, stop_time, time_step) -> None:
    from repro.circuit.simulator import stability_substep

    # Corner-steps as benchmarks/bench_kernel.py counts them, so the
    # ns-per-corner-step figure is comparable with BENCH_kernel.json.
    substeps = round(stop_time / stability_substep(stop_time, time_step))
    record.annotate(batch=self.batch_size, nets=len(self.net_names),
                    stop_time_s=stop_time, time_step_s=time_step)
    record.add("substeps", substeps)
    record.add("corner_steps", self.batch_size * substeps)


def _characterize_sweep(record, result, *args, **kwargs) -> None:
    record.add("cases", len(result.points))


def _characterize_cases(record, result, *args, **kwargs) -> None:
    record.add("cases", len(result))


def _circuit_study(record, result, *args, **kwargs) -> None:
    record.add("unique_cells", result.unique_cells)


def _evaluate_batch(record, result, self, batch, groups=1, **kwargs) -> None:
    record.add("trials", groups)


def _get_corners(record, result, self, keys) -> None:
    record.add("corner_hits", len(result))
    record.add("corner_misses", len(keys) - len(result))


def install() -> None:
    """Wrap every engine entry point in a span (idempotent)."""
    from repro.analysis import experiments
    from repro.cells import characterize
    from repro.circuit import simulator
    from repro import circuit_study
    from repro.circuit_study import study as circuit_study_module
    from repro.immunity import checker, montecarlo
    from repro.runtime import cache

    batch = simulator.CompiledTransientBatch
    if getattr(batch.integrate, "__perfbench_wrapped__", False):
        return
    batch.__init__ = _wrap(batch.__init__, "kernel.compile", _kernel_compile)
    batch.integrate = _wrap(batch.integrate, "kernel.integrate",
                            _kernel_integrate)

    sweep = _wrap(characterize.characterize_sweep, "characterize.sweep",
                  _characterize_sweep)
    _rebind((characterize, experiments), "characterize_sweep", sweep)
    cases = _wrap(characterize.characterize_cases, "characterize.cases",
                  _characterize_cases)
    _rebind((characterize,), "characterize_cases", cases)

    run_circuit = _wrap(circuit_study_module.run_circuit_study,
                        "circuit_study.run", _circuit_study)
    _rebind((experiments, circuit_study, circuit_study_module),
            "run_circuit_study", run_circuit)

    checker.ImmunityChecker.evaluate_batch = _wrap(
        checker.ImmunityChecker.evaluate_batch, "immunity.evaluate",
        _evaluate_batch)
    _rebind((montecarlo,), "sample_mispositioned_batch",
            _wrap(montecarlo.sample_mispositioned_batch, "immunity.sample"))

    store = cache.ResultCache
    store.get = _wrap(store.get, "cache.get")
    store.put = _wrap(store.put, "cache.put")
    store.get_corners = _wrap(store.get_corners, "cache.get_corners",
                              _get_corners)
    store.put_corner = _wrap(store.put_corner, "cache.put_corner")


# -- derivation -------------------------------------------------------------

def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        start = float(record["start_s"])
        children.setdefault(record["parent"], []).append(
            (start, start + float(record["duration_s"])))
    result = {}
    for record in spans:
        start = float(record["start_s"])
        stop = start + float(record["duration_s"])
        covered = _union_length([
            (max(a, start), min(b, stop))
            for a, b in children.get(record["id"], ())
            if b > start and a < stop
        ])
        result[record["id"]] = max(float(record["duration_s"]) - covered, 0.0)
    return result


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(document: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer number, from one ``repro-trace/v1`` document.

    The benchmark stores what the trace cannot know in the document's
    attributes: ``wall_s`` (the traced pass), ``untraced_wall_s`` (the
    matching untraced pass) and, for the service, the client-side
    counts and the server's ``/metrics`` gauges.
    """
    spans = document["spans"]
    attributes = document.get("attributes", {})
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)

    def named(*names: str) -> List[Dict[str, Any]]:
        return [record for name in names for record in by_name.get(name, ())]

    def duration(*names: str) -> float:
        return sum(float(record["duration_s"]) for record in named(*names))

    def counter(key: str, *names: str) -> float:
        return sum(float(record["counters"].get(key, 0.0))
                   for record in named(*names))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for record in spans:
        layer = layer_of(record["name"])
        if layer is not None:
            layer_self[layer] += own[record["id"]]

    wall = float(attributes.get("wall_s", document["duration_s"]))
    metrics: Dict[str, float] = {}

    # circuit.simulator
    integrate = named("kernel.integrate")
    kernel_integrate_s = duration("kernel.integrate")
    corner_steps = counter("corner_steps", "kernel.integrate")
    metrics["kernel.calls"] = float(len(integrate))
    metrics["kernel.batch_max"] = float(max(
        (record["attributes"].get("batch", 0) for record in integrate),
        default=0))
    metrics["kernel.compile_s"] = duration("kernel.compile")
    metrics["kernel.integrate_s"] = kernel_integrate_s
    metrics["kernel.substeps"] = counter("substeps", "kernel.integrate")
    metrics["kernel.corner_steps"] = corner_steps
    metrics["kernel.ns_per_corner_step"] = _ratio(kernel_integrate_s * 1e9,
                                                  corner_steps)
    metrics["kernel.wall_share"] = _ratio(
        metrics["kernel.compile_s"] + kernel_integrate_s, wall)

    # cells.characterize
    characterize = ("characterize.sweep", "characterize.cases")
    metrics["characterize.calls"] = float(len(named(*characterize)))
    metrics["characterize.cases"] = counter("cases", *characterize)

    # circuit_study
    metrics["circuit_study.unique_cells"] = counter("unique_cells",
                                                    "circuit_study.run")

    # immunity
    trials = counter("trials", "immunity.evaluate")
    metrics["immunity.trials"] = trials
    metrics["immunity.sample_s"] = duration("immunity.sample")
    metrics["immunity.evaluate_s"] = duration("immunity.evaluate")
    metrics["immunity.ns_per_trial"] = _ratio(
        (metrics["immunity.sample_s"] + metrics["immunity.evaluate_s"]) * 1e9,
        trials)

    # study (registry + sweeps delta planner)
    for study in STUDIES:
        metrics[f"study.{study}_s"] = duration(f"study:{study}")
    sweeps = [record for record in spans
              if record["name"].startswith("sweep:")]
    plans = named("sweep.plan")
    planned = sum(int(record["attributes"].get("corners", 0))
                  for record in sweeps)
    planned_hits = sum(int(record["attributes"].get("hits", 0))
                       for record in plans)
    whole_hits = sum(int(record["attributes"].get("corners", 0))
                     for record in sweeps
                     if record["attributes"].get("cache") == "hit")
    metrics["sweep.plan_s"] = duration("sweep.plan")
    metrics["sweep.execute_s"] = duration("sweep.execute")
    metrics["sweep.corners_planned"] = float(planned)
    metrics["sweep.corners_executed"] = float(planned - planned_hits
                                              - whole_hits)

    # runtime.cache
    hits = counter("corner_hits", "cache.get_corners")
    misses = counter("corner_misses", "cache.get_corners")
    metrics["cache.get_s"] = duration("cache.get", "cache.get_corners")
    metrics["cache.put_s"] = duration("cache.put", "cache.put_corner")
    metrics["cache.corner_hits"] = hits
    metrics["cache.corner_misses"] = misses
    metrics["cache.corner_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["cache.puts"] = float(len(named("cache.put", "cache.put_corner")))

    # runtime.scheduler
    run_tasks = named("scheduler.run_tasks")
    task_ids = {record["id"] for record in run_tasks}
    metrics["scheduler.tasks"] = float(len(named("scheduler.task")))
    metrics["scheduler.overhead_s"] = max(sum(
        float(record["duration_s"]) for record in run_tasks) - sum(
        float(record["duration_s"]) for record in named("scheduler.task")
        if record["parent"] in task_ids), 0.0)

    # service (client counts and server gauges live in the attributes)
    jobs = float(attributes.get("service.valid_submissions", 0))
    runs = named("job.run")
    client_jobs = named("client.job")
    latency = [float(record["duration_s"]) for record in client_jobs
               if record["attributes"].get("valid")]
    run_ms = _median([float(record["duration_s"]) * 1e3 for record in runs])
    queue_ms = float(attributes.get("service.queue_wait_ms", 0.0))
    metrics["service.submissions"] = float(
        attributes.get("service.submissions", 0))
    metrics["service.dedup_ratio"] = _ratio(
        float(attributes.get("service.deduplicated", 0)),
        float(attributes.get("service.valid_submissions", 0)))
    metrics["service.job_p95_ms"] = (statistics.quantiles(
        [value * 1e3 for value in latency], n=100, method="inclusive")[94]
        if len(latency) > 1 else 0.0)
    metrics["service.queue_wait_ms"] = queue_ms
    metrics["service.run_ms"] = run_ms
    metrics["service.http_overhead_ms"] = (
        max(_median([value * 1e3 for value in latency]) - run_ms - queue_ms,
            0.0) if latency else 0.0)
    metrics["service.requests_per_job"] = _ratio(
        counter("requests", "client.job"), jobs)
    metrics["service.worker_utilization"] = float(
        attributes.get("service.worker_utilization", 0.0))
    metrics["service.rejected_4xx"] = float(
        attributes.get("service.rejected_4xx", 0))
    for key in ("mix.repeat_share", "mix.prefix_share", "mix.fresh_share",
                "mix.malformed_share"):
        metrics[key] = float(attributes.get(key, 0.0))

    for layer in LAYERS:
        metrics[SELF_METRIC[layer]] = layer_self[layer]

    # Service clients run concurrently, so their summed busy time (not
    # the round wall time) is what the layer self times add up to.
    basis = (sum(float(record["duration_s"]) for record in client_jobs)
             if client_jobs else wall)
    metrics["trace.overhead_s"] = wall - float(
        attributes.get("untraced_wall_s", wall))
    metrics["trace.unattributed_s"] = basis - sum(layer_self.values())
    return metrics


def layer_table(document: Dict[str, Any]) -> List[Tuple[str, int, float]]:
    """``(layer, spans, self_s)`` for every layer, in :data:`LAYERS` order."""
    own = self_times(document["spans"])
    counts = {layer: 0 for layer in LAYERS}
    seconds = {layer: 0.0 for layer in LAYERS}
    for record in document["spans"]:
        layer = layer_of(record["name"])
        if layer is not None:
            counts[layer] += 1
            seconds[layer] += own[record["id"]]
    return [(layer, counts[layer], seconds[layer]) for layer in LAYERS]

