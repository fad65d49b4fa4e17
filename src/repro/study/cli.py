"""The ``repro`` command line: every paper scenario reachable headlessly.

Examples::

    python -m repro list
    python -m repro verify
    python -m repro run fig7 --json fig7.json
    python -m repro run fig2 --seed 7 --trials 500 --json -
    python -m repro run fig8 --text
    python -m repro run fig3 --json - --cache .repro-cache
    python -m repro sweep --engine immunity --axis cnts_per_trial=2,4,8 \
        --axis technique=vulnerable,compact --trials 500 --jobs 4 --json -
    python -m repro sweep --engine transient --axis vdd=0.8:1.0:5 \
        --set cell=NAND2 --json sweep.json
    python -m repro circuit --generate adder:8 --trials 500 --json -
    python -m repro circuit design.v --cache .repro-cache
    python -m repro sweep --engine circuit --axis metallic_fraction=0:0.02:3 \
        --set circuit=adder:4 --set draws=500 --json -
    python -m repro batch manifest.json --cache .repro-cache --jobs 4
    python -m repro sweep --engine immunity --axis cnts_per_trial=2,4,8 \
        --cache .repro-cache --trace sweep-trace.json --json -
    python -m repro trace summarize sweep-trace.json
    python -m repro serve --port 8000 --cache .repro-cache --workers 2
    python -m repro cache stats --cache .repro-cache
    python -m repro cache prune --cache .repro-cache
    python -m repro cache prune --cache .repro-cache --max-age 86400 \
        --max-entries 512

``--json -`` streams the serialized result envelope (schema
``repro-study-result/v1``; see ``docs/repro_result.schema.json``) to
stdout; ``--json PATH`` writes it to a file.  Without ``--json`` the
result's text rendering (``str(result)``) is printed.

Runtime flags (``run``, ``sweep`` and ``batch``): ``--jobs N`` shards
the work over the runtime scheduler (bit-identical to serial);
``--cache DIR`` consults and fills the content-addressed result store
(also enabled store-wide by ``$REPRO_CACHE_DIR``; ``--no-cache`` turns
it off).  With a cache attached, ``sweep`` is **incremental by
default**: the requested grid is diffed against the persistent corner
store and only missing corners execute, so extending an axis of an
already-cached sweep costs O(delta), not O(grid).  The cache outcome
(``hit`` / ``miss`` / ``partial:<hits>/<corners>``) is written to stderr
and recorded in the result's provenance.

``--trace PATH`` (``run``, ``sweep``, ``circuit``, ``batch``) records a
``repro-trace/v1`` envelope of the invocation — spans, cache counters,
metrics snapshot — without changing the result by a single byte;
``repro trace summarize PATH`` renders its per-phase time breakdown.
"""

from __future__ import annotations

import argparse
import json as json_module
import os
import sys
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ReproError, StudyError
from .registry import get_study, list_studies, run_study
from .results import StudyResult
from .spec import SweepSpec, _parse_scalar


def _parse_assignment(text: str) -> tuple:
    """``"key=value"`` -> (key, parsed value).

    ``true``/``false``/``none`` (any case, ``null`` too) coerce to the
    Python literals.  Commas build a tuple; a trailing comma makes a
    one-element tuple (``tube_counts=4,`` -> ``(4,)``), which is how
    sequence-typed runner parameters take a single value from the command
    line.  Malformed assignments raise :class:`StudyError`, which the CLI
    turns into a one-line message and exit code 2 — never a traceback.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise StudyError(f"Malformed parameter {text!r}; expected key=value")
    raw = raw.strip()
    if not raw:
        raise StudyError(f"Parameter {text!r} has no value; expected key=value")
    if "," in raw:
        tokens = [token for token in raw.split(",") if token.strip()]
        if not tokens:
            raise StudyError(f"Parameter {text!r} has no values")
        return key, tuple(_parse_value(token) for token in tokens)
    return key, _parse_value(raw)


def _parse_value(token: str):
    """One CLI value: the ``true``/``false``/``none`` literals, then the
    int/float/str scalar fallback — applied uniformly to scalars and to
    every element of a comma-separated tuple."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    return _parse_scalar(token)


def _parse_assignments(texts: Optional[Sequence[str]],
                       flag: str) -> Dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags, naming the flag in errors."""
    values: Dict[str, Any] = {}
    for text in texts or []:
        try:
            key, value = _parse_assignment(text)
        except StudyError as error:
            raise StudyError(f"{flag} {error}") from error
        values[key] = value
    return values


def _resolve_cache(args):
    """The ``--cache``/``--no-cache``/``$REPRO_CACHE_DIR`` resolution.

    Returns a :class:`~repro.runtime.cache.ResultCache` or ``None``; the
    explicit flags win over the environment variable.
    """
    from ..runtime.cache import ENV_CACHE_DIR, ResultCache

    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache", None)
    if explicit:
        return ResultCache(explicit)
    if os.environ.get(ENV_CACHE_DIR):
        return ResultCache()
    return None


def _note_cache(result: StudyResult, store, stderr) -> None:
    if store is not None and result.provenance.cache is not None:
        stderr.write(f"cache {result.provenance.cache}: {store.root}\n")


@contextmanager
def _traced(args, name: str, stderr):
    """Trace the wrapped invocation when ``--trace PATH`` was given.

    Activates a fresh tracer around the body (the instrumented layers
    pick it up thread-locally), then writes the ``repro-trace/v1``
    envelope to the requested path.  Without ``--trace`` this is a pure
    pass-through — the command runs exactly as before.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from ..obs import trace as obs_trace

    tracer = obs_trace.Tracer(name, command=name.partition(":")[0])
    with tracer.activate():
        yield
    obs_trace.write_trace(tracer.to_document(), path)
    stderr.write(f"trace written: {path}\n")


def _emit(result: StudyResult, json_target: Optional[str],
          as_text: bool, stdout) -> None:
    if json_target is not None:
        if json_target == "-":
            stdout.write(result.to_json() + "\n")
        else:
            result.to_json(path=json_target)
            stdout.write(f"wrote {json_target}\n")
    if as_text or json_target is None:
        stdout.write(str(result) + "\n")


def _cmd_list(args, stdout, stderr) -> int:
    studies = list_studies()
    if args.json:
        stdout.write(json_module.dumps(
            [
                {
                    "name": definition.name,
                    "figure": definition.figure,
                    "description": definition.description,
                    "aliases": list(definition.aliases),
                }
                for definition in studies
            ],
            indent=2,
        ) + "\n")
        return 0
    header = f"{'name':<18} {'figure':<12} description"
    stdout.write(header + "\n")
    stdout.write("-" * 72 + "\n")
    for definition in studies:
        aliases = f"  (aliases: {', '.join(definition.aliases)})" \
            if definition.aliases else ""
        stdout.write(
            f"{definition.name:<18} {definition.figure:<12} "
            f"{definition.description}{aliases}\n"
        )
    stdout.write(
        "\nrun one with: python -m repro run <name> [--json out.json]\n"
    )
    return 0


def _cmd_run(args, stdout, stderr) -> int:
    definition = get_study(args.study)
    accepted = definition.parameters()
    params = _parse_assignments(args.param, "--param")
    if args.seed is not None:
        if "seed" not in accepted:
            raise StudyError(
                f"Study {definition.name!r} takes no seed; "
                f"parameters: {sorted(accepted)}"
            )
        params["seed"] = args.seed
    if args.trials is not None:
        if "trials" not in accepted:
            raise StudyError(
                f"Study {definition.name!r} takes no trial count; "
                f"parameters: {sorted(accepted)}"
            )
        params["trials"] = args.trials
    store = _resolve_cache(args)
    with _traced(args, f"run:{definition.name}", stderr):
        result = run_study(definition.name, cache=store, jobs=args.jobs,
                           **params)
    _note_cache(result, store, stderr)
    _emit(result, args.json, args.text, stdout)
    return 0


def _cmd_verify(args, stdout, stderr) -> int:
    from .. import paper

    outcomes = paper.verify()
    for row, measured, holds in outcomes:
        stdout.write(paper.format_outcome(row, measured, holds) + "\n")
    misses = [row.id for row, _, holds in outcomes if not holds]
    stderr.write(f"verify: {len(outcomes)} rows, {len(misses)} MISS"
                 + (f" ({', '.join(misses)})" if misses else "") + "\n")
    return 1 if misses else 0


def _cmd_sweep(args, stdout, stderr) -> int:
    from ..runtime.manifest import ManifestEntry

    spec = SweepSpec.parse(args.axis, mode=args.mode)
    params: Dict[str, Any] = _parse_assignments(args.set, "--set")
    if args.trials is not None:
        params["trials"] = args.trials
    if args.seed is not None:
        params["seed"] = args.seed
    entry = ManifestEntry.from_mapping({
        "study": "sweep", "engine": args.engine, "mode": spec.mode,
        "axes": {axis.name: axis.values for axis in spec.axes},
        "params": params,
    })
    store = _resolve_cache(args)
    with _traced(args, f"sweep:{args.engine}", stderr):
        result = entry.run(store, args.jobs, args.backend)
    _note_cache(result, store, stderr)
    _emit(result, args.json, args.text, stdout)
    return 0


def _cmd_circuit(args, stdout, stderr) -> int:
    from ..runtime.manifest import ManifestEntry

    if args.verilog is None and args.generate is None:
        raise StudyError(
            "repro circuit needs a Verilog file or --generate FAMILY[:BITS]"
        )
    if args.verilog is not None and args.generate is not None:
        raise StudyError(
            "repro circuit takes a Verilog file or --generate, not both"
        )
    if args.verilog is not None:
        # A missing/unreadable file surfaces as `error: ...` + exit 2 via
        # main()'s OSError handler, like every other CLI failure.
        with open(args.verilog, "r", encoding="utf-8") as stream:
            circuit = stream.read()
    else:
        circuit = args.generate
    params = _parse_assignments(args.param, "--param")
    params["circuit"] = circuit
    if args.trials is not None:
        params["trials"] = args.trials
    if args.seed is not None:
        params["seed"] = args.seed
    entry = ManifestEntry.from_mapping({"study": "circuit", "params": params})
    store = _resolve_cache(args)
    with _traced(args, "circuit", stderr):
        result = entry.run(store, args.jobs, args.backend)
    _note_cache(result, store, stderr)
    _emit(result, args.json, args.text, stdout)
    return 0


def _cmd_batch(args, stdout, stderr) -> int:
    from ..runtime.manifest import run_manifest

    store = _resolve_cache(args)
    with _traced(args, "batch", stderr):
        result = run_manifest(args.manifest, cache=store, jobs=args.jobs)
    _emit(result, args.json, args.text, stdout)
    return 0


def _cmd_serve(args, stdout, stderr) -> int:
    from ..service.server import ReproService, describe_endpoints

    store = _resolve_cache(args)
    service = ReproService(
        host=args.host,
        port=args.port,
        cache=store,
        jobs=args.jobs,
        backend=args.backend,
        workers=args.workers,
        verbose=args.verbose,
    )
    stdout.write(f"repro service listening on {service.url}\n")
    for endpoint, meaning in describe_endpoints().items():
        stdout.write(f"  {endpoint:<24} {meaning}\n")
    if store is not None:
        stdout.write(f"  cache: {store.root}\n")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        stderr.write("shutting down\n")
    finally:
        service.close()
    return 0


def _cmd_cache(args, stdout, stderr) -> int:
    from ..runtime.cache import ResultCache

    store = _resolve_cache(args) or ResultCache()
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            stdout.write(json_module.dumps(stats.as_dict(), indent=2,
                                           sort_keys=True) + "\n")
        else:
            stdout.write(str(stats) + "\n")
        return 0
    # Mirror _parse_assignment's discipline: malformed bounds become a
    # one-line `error: ...` and exit code 2, never a traceback.
    if args.max_age is not None and args.max_age < 0:
        raise StudyError(
            f"--max-age must be >= 0 seconds, got {args.max_age:g}"
        )
    if args.max_entries is not None and args.max_entries < 0:
        raise StudyError(
            f"--max-entries must be >= 0, got {args.max_entries}"
        )
    removed = store.prune(study=args.study, max_age_s=args.max_age,
                          max_entries=args.max_entries)
    stdout.write(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
                 f"from {store.root}\n")
    return 0


def _cmd_trace(args, stdout, stderr) -> int:
    from ..obs import trace as obs_trace

    try:
        with open(args.file, "r", encoding="utf-8") as stream:
            document = json_module.load(stream)
    except ValueError as error:
        raise StudyError(f"{args.file} is not JSON: {error}") from error
    found = document.get("schema") if isinstance(document, dict) else None
    if found != obs_trace.TRACE_SCHEMA:
        raise StudyError(
            f"{args.file} is not a {obs_trace.TRACE_SCHEMA} envelope "
            f"(schema={found!r})"
        )
    stdout.write(obs_trace.summarize_trace(document) + "\n")
    return 0


def _add_runtime_flags(parser: argparse.ArgumentParser,
                       backend: bool = False, trace: bool = True) -> None:
    """The scheduler/cache flags shared by ``run``, ``sweep``, ``batch``."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="shard the work over N workers (bit-identical "
                             "to serial; negative = one per CPU)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="consult/fill the content-addressed result "
                             "store at DIR (default store: $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even if "
                             "$REPRO_CACHE_DIR is set")
    if trace:
        parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a repro-trace/v1 envelope of this "
                                 "invocation to PATH (observation-only: "
                                 "the result is bit-identical either way)")
    if backend:
        parser.add_argument("--backend", choices=("serial", "thread", "process"),
                            default=None,
                            help="scheduler backend (default: process pool "
                                 "when --jobs > 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the paper's figures and tables headlessly "
            "(typed Study API over the vectorized engines)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list every runnable study")
    list_parser.add_argument("--json", action="store_true",
                             help="emit the study table as JSON")
    list_parser.set_defaults(handler=_cmd_list)

    verify_parser = subparsers.add_parser(
        "verify",
        help="check every paper number of repro.paper against a fresh run "
             "(exit 1 on any MISS)")
    verify_parser.set_defaults(handler=_cmd_verify)

    run_parser = subparsers.add_parser(
        "run", help="run one study (repro run fig7 --json out.json)")
    run_parser.add_argument("study", help="study name or alias (see: repro list)")
    run_parser.add_argument("--json", metavar="PATH",
                            help="write the serialized result ('-' = stdout)")
    run_parser.add_argument("--text", action="store_true",
                            help="also print the text rendering with --json")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="Monte Carlo seed (seeded studies only)")
    run_parser.add_argument("--trials", type=int, default=None,
                            help="Monte Carlo trial count (seeded studies only)")
    run_parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                            help="extra runner parameter (repeatable; commas "
                                 "build a list, trailing comma a one-element "
                                 "list, e.g. tube_counts=4,; true/false/none "
                                 "coerce to the Python literals)")
    _add_runtime_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a unified sweep (repro sweep --axis vdd=0.8:1.0:5 ...)")
    sweep_parser.add_argument("--axis", action="append", required=True,
                              metavar="NAME=SPEC",
                              help="axis as name=start:stop:steps, name=a,b,c "
                                   "or name=value (repeatable)")
    sweep_parser.add_argument("--engine",
                              choices=("immunity", "transient", "circuit"),
                              default="immunity")
    sweep_parser.add_argument("--mode", choices=("grid", "zip"), default="grid",
                              help="cartesian grid or lock-step zip expansion")
    sweep_parser.add_argument("--trials", type=int, default=None,
                              help="Monte Carlo trials (immunity engine; "
                                   "default 200)")
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help="Monte Carlo seed (immunity engine; "
                                   "default 2009)")
    sweep_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                              help="fixed value for an unswept axis (repeatable)")
    sweep_parser.add_argument("--json", metavar="PATH",
                              help="write the serialized result ('-' = stdout)")
    sweep_parser.add_argument("--text", action="store_true",
                              help="also print the text rendering with --json")
    _add_runtime_flags(sweep_parser, backend=True)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    circuit_parser = subparsers.add_parser(
        "circuit",
        help="run the circuit-level yield/delay/energy study on a Verilog "
             "netlist or a built-in generator "
             "(repro circuit --generate adder:8 --json -)")
    circuit_parser.add_argument("verilog", nargs="?", default=None,
                                metavar="FILE.V",
                                help="structural Verilog netlist to analyse")
    circuit_parser.add_argument("--generate", metavar="FAMILY[:BITS]",
                                default=None,
                                help="use a built-in circuit instead of a "
                                     "file: adder:8, comparator:4, mac:4, "
                                     "fulladder")
    circuit_parser.add_argument("--json", metavar="PATH",
                                help="write the serialized result "
                                     "('-' = stdout)")
    circuit_parser.add_argument("--text", action="store_true",
                                help="also print the text rendering with "
                                     "--json")
    circuit_parser.add_argument("--seed", type=int, default=None,
                                help="Monte Carlo seed (default 2009)")
    circuit_parser.add_argument("--trials", type=int, default=None,
                                help="Monte Carlo trials per unique cell "
                                     "(default 200)")
    circuit_parser.add_argument("--param", action="append",
                                metavar="KEY=VALUE",
                                help="extra study parameter (repeatable), "
                                     "e.g. metallic_fraction=0.01 draws=5000")
    _add_runtime_flags(circuit_parser, backend=True)
    circuit_parser.set_defaults(handler=_cmd_circuit)

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a JSON manifest of studies with cross-study dedup "
             "(repro batch manifest.json --cache .repro-cache)")
    batch_parser.add_argument("manifest",
                              help="path to the manifest JSON (a list of "
                                   "{study, params} / sweep entries)")
    batch_parser.add_argument("--json", metavar="PATH",
                              help="write the serialized batch outcome "
                                   "('-' = stdout)")
    batch_parser.add_argument("--text", action="store_true",
                              help="also print the text rendering with --json")
    _add_runtime_flags(batch_parser)
    batch_parser.set_defaults(handler=_cmd_batch)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the async study service: an HTTP job API "
             "(repro serve --port 8000 --cache .repro-cache)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="bind port (0 = ephemeral; default: 8000)")
    serve_parser.add_argument("--workers", type=int, default=2, metavar="N",
                              help="concurrent job slots (default: 2)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log each HTTP request to stderr")
    # The service records one trace per job (GET /jobs/<id>/trace), so a
    # process-level --trace would be misleading here.
    _add_runtime_flags(serve_parser, backend=True, trace=False)
    serve_parser.set_defaults(handler=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect repro-trace/v1 envelopes written by --trace")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="per-phase time breakdown of a trace file")
    summarize_parser.add_argument("file",
                                  help="trace JSON written by --trace or "
                                       "GET /jobs/<id>/trace")
    summarize_parser.set_defaults(handler=_cmd_trace)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune the result cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    stats_parser = cache_sub.add_parser(
        "stats", help="entry counts and sizes of the store")
    stats_parser.add_argument("--cache", metavar="DIR", default=None,
                              help="store location (default: "
                                   "$REPRO_CACHE_DIR or .repro-cache)")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the stats as JSON")
    stats_parser.set_defaults(handler=_cmd_cache)
    prune_parser = cache_sub.add_parser(
        "prune", help="delete cache entries (all, one study's, or bounded "
                      "by age / count)")
    prune_parser.add_argument("--cache", metavar="DIR", default=None,
                              help="store location (default: "
                                   "$REPRO_CACHE_DIR or .repro-cache)")
    prune_parser.add_argument("--study", default=None,
                              help="only prune entries of this study "
                                   "(corner envelopes: 'corner')")
    prune_parser.add_argument("--max-age", type=float, default=None,
                              metavar="SECONDS",
                              help="drop entries older than SECONDS "
                                   "(default: no age bound)")
    prune_parser.add_argument("--max-entries", type=int, default=None,
                              metavar="N",
                              help="keep only the N newest entries per "
                                   "granularity (study entries and corner "
                                   "envelopes bounded independently)")
    prune_parser.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None,
         stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args, stdout, stderr)
    except ReproError as error:
        stderr.write(f"error: {error}\n")
        return 2
    except OSError as error:
        stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
