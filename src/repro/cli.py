"""Command-line interface: compile, run, analyse, trace and report.

Usage (also via ``python -m repro``)::

    repro run PROGRAM.tc                 # execute a tinyc program
    repro compile PROGRAM.tc             # dump the decision-tree IR
    repro analyze PROGRAM.tc [options]   # cycles under all disambiguators
    repro bench NAME [options]           # same for a built-in benchmark
    repro bench --corpus [options]       # stream the generated corpus
    repro corpus {build,verify,stats}    # curate the program corpus
    repro trace TARGET [options]         # per-pass timing tree + metrics
    repro report {table6_1,...,all}      # regenerate a paper table/figure
    repro hwcompare [NAME...] [options]  # compiler vs. hardware sweep
    repro fuzz [options]                 # differential fuzzing campaign
    repro serve [options]                # compilation-as-a-service HTTP API
    repro loadgen [options]              # drive a running server, bench it
    repro list                           # list built-in benchmarks
    repro passes                         # list registered program passes

Options shared by ``analyze``/``bench``/``trace``/``schedule``:
``--fus N`` (default 5, 0 = infinite), ``--memory {2,6}`` (default 6),
``--graft``, the SpD heuristic knobs ``--max-expansion``,
``--min-gain``, ``--profiled-alias``, and the pass-pipeline knobs
``--passes LIST`` (comma-separated cleanup passes, or ``default`` /
``none``) and ``--dump-after PASS`` (print the IR after a pass;
repeatable).  ``report`` honors the SpD and pass knobs too.

``run``/``analyze``/``bench``/``trace``/``report``/``hwcompare`` and
``perf check`` accept ``--engine {interp,jit}`` (default ``jit``) to
pick the execution engine for program runs; ``fuzz --engine`` also
accepts ``all`` (the default) to cross-check every registered semantic
engine.  Engines are reference-identical (docs/architecture.md,
"Execution engines").

``analyze``, ``bench``, ``trace`` and ``report`` accept ``--json OUT``
to write a machine-readable result (schemas in docs/observability.md)
alongside the unchanged text output; ``OUT`` may be ``-`` for stdout.
``bench`` and ``report`` accept ``--jobs N`` to fan the timing matrix
out over worker processes, and both are served from the artifact cache
(``$REPRO_CACHE_DIR``, see docs/architecture.md) on repeat runs.
``analyze``, ``schedule`` and ``trace`` run the same cached pipeline
on a memory-only store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import obs
from .bench.suite import SUITE
from .disambig.pipeline import Disambiguator
from .disambig.spd_heuristic import SpDConfig
from .engines import DEFAULT_ENGINE, engine_names
from .frontend.driver import compile_source
from .frontend.grafting import GraftConfig, graft_program
from .ir.printer import format_program
from .machine.description import machine
from .machine.hw import PREDICTOR_NAMES
from .passes import (DEFAULT_CLEANUP, PassPipelineConfig, UnknownPassError,
                     registered_passes)
from .pipeline.artifacts import report_table
from .pipeline.core import Pipeline
from .pipeline.executor import HwTimingJob, TimingJob
from .pipeline.store import ArtifactStore
from .sim.interpreter import run_program

__all__ = ["main"]

#: Mirrors repro.corpus.manifest.DEFAULT_MANIFEST_PATH without paying
#: the corpus import at CLI startup (pinned by tests/corpus/test_cli).
_DEFAULT_CORPUS_MANIFEST = Path("benchmarks") / "corpus" / "manifest.json"


def _load_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _machine_from(args) -> "machine":
    num_fus = None if args.fus == 0 else args.fus
    return machine(num_fus, args.memory)


def _engine_from(args) -> str:
    return getattr(args, "engine", DEFAULT_ENGINE)


def _spd_config_from(args) -> SpDConfig:
    return SpDConfig(max_expansion=args.max_expansion,
                     min_gain=args.min_gain,
                     alias_probability_weighting=args.profiled_alias)


def _pass_config_from(args) -> PassPipelineConfig:
    """``--passes``/``--dump-after`` -> a validated pipeline config.

    ``--passes`` accepts a comma-separated cleanup pass list, the word
    ``default`` (= ``constfold,copyprop,dce``) or ``none`` (= empty, the
    default: the paper's unaltered toolchain).
    """
    spec = getattr(args, "passes", None)
    dump = tuple(getattr(args, "dump_after", None) or ())
    if spec is None or spec == "none":
        cleanup = ()
    elif spec == "default":
        cleanup = DEFAULT_CLEANUP
    else:
        cleanup = tuple(name for name in spec.split(",") if name)
    try:
        return PassPipelineConfig(cleanup=cleanup, dump_after=dump).validated()
    except UnknownPassError as error:
        raise SystemExit(f"repro: {error}")


def _pipeline_from(args, store: Optional[ArtifactStore] = None) -> Pipeline:
    """The cached pipeline the toolchain flags describe; *store*
    defaults to the shared disk cache."""
    return Pipeline(spd_config=_spd_config_from(args),
                    graft=GraftConfig() if getattr(args, "graft", False)
                    else None,
                    store=store, passes=_pass_config_from(args),
                    engine=_engine_from(args))


def _write_json(path: str, payload: dict) -> int:
    """Write *payload* to *path* ('-' = stdout); return an exit status.

    Keys are sorted so exports are byte-stable across runs — metrics
    merged back from multiprocessing workers arrive in pool-scheduling
    order, and that order must not leak into the serialised output."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
        return 0
    try:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(f"cannot write --json output: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    program = compile_source(_load_source(args.program))
    result = run_program(program, engine=_engine_from(args))
    for value in result.output:
        print(value)
    print(f"[{result.steps} operations executed]", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    program = compile_source(_load_source(args.program))
    if args.graft:
        program, stats = graft_program(program)
        print(f"; grafted: {stats.grafts} grafts, "
              f"{stats.ops_before} -> {stats.ops_after} ops", file=sys.stderr)
    print(format_program(program))
    return 0


def _timed_views(pipeline: Pipeline, label: str, source: str, mach,
                 jobs: int = 1, hw_mach=None) -> dict:
    """Each disambiguator's ``(view, timing)`` artifacts for one program.

    ``jobs > 1`` first fans the timing matrix (plus the SPEC hwtime job
    on *hw_mach*) out over worker processes, whose spans merge under
    ``pipeline.parallel`` with per-pid lanes; each kind's view and
    timing then run under its own ``analyze.<kind>`` span."""
    if jobs > 1:
        prefetch = [TimingJob(label, source, kind, mach)
                    for kind in Disambiguator]
        if hw_mach is not None:
            prefetch.append(HwTimingJob(label, source, Disambiguator.SPEC,
                                        hw_mach))
        pipeline.prefetch(prefetch, jobs)
    stages = {}
    for kind in Disambiguator:
        with obs.span(f"analyze.{kind.value}"):
            stages[kind] = (
                pipeline.view(label, source, kind, mach.memory_latency),
                pipeline.timing(label, source, kind, mach))
    return stages


def _analyze(args, pipeline: Pipeline, label: str, source: str) -> dict:
    """Print the per-disambiguator cycle table; return it structured."""
    mach = _machine_from(args)
    stages = _timed_views(pipeline, label, source, mach,
                          getattr(args, "jobs", 1))
    reference = pipeline.profile(label, source).reference
    data = report_table(mach, pipeline.compiled(label, source),
                        stages[Disambiguator.SPEC][0],
                        {kind: timing for kind, (_, timing) in stages.items()})
    print(f"{label}: {data['ops']} ops, output {reference.output[:6]}"
          f"{'...' if len(reference.output) > 6 else ''}")
    print(f"machine: {mach.name}")
    naive_cycles = stages[Disambiguator.NAIVE][1].cycles
    for kind, (view, timing) in stages.items():
        entry = data["disambiguators"][kind.value]
        # the text formats the unrounded ratio, not the JSON's 6 digits
        speedup = naive_cycles / timing.cycles - 1 if timing.cycles else 0.0
        extra = ""
        if kind is Disambiguator.SPEC:
            counts = {k: v for k, v in entry["spd_counts"].items() if v}
            extra = f"  SpD: {counts or 'none'}"
        if view.result.pass_stats:
            entry["passes"] = view.result.pass_stats
        print(f"  {kind.value:>8}: {timing.cycles:10d} cycles "
              f"({speedup:+7.1%} vs naive){extra}")
    return {"program": label, **data}


def _run_analysis(args, pipeline: Pipeline, label: str, source: str) -> int:
    """Shared analyze/bench tail: text table, optional JSON + trace."""
    profiling = getattr(args, "profile", False)
    if not (args.json or profiling):
        _analyze(args, pipeline, label, source)
        return 0
    if profiling:
        obs.enable_profiling()
    try:
        with obs.tracing() as tracer:
            data = _analyze(args, pipeline, label, source)
    finally:
        obs.disable_profiling()
    if profiling:
        tables = obs.format_profile_tables(tracer.root)
        if tables:
            print()
            print(tables)
    if args.json:
        payload = {"schema": "repro.analysis/1", **data, **tracer.to_dict()}
        return _write_json(args.json, payload)
    return 0


def _cmd_analyze(args) -> int:
    # a memory-only store, like `repro trace`: a loose file leaves no
    # cache entries behind
    return _run_analysis(args, _pipeline_from(args, ArtifactStore(None)),
                         args.program, _load_source(args.program))


def _cmd_bench(args) -> int:
    if args.corpus is not None:
        if args.name is not None:
            print("bench: give either a benchmark name or --corpus, "
                  "not both", file=sys.stderr)
            return 2
        return _cmd_bench_corpus(args)
    if args.name is None:
        print("bench: benchmark name required (or --corpus); "
              "see 'repro list'", file=sys.stderr)
        return 2
    if args.name not in SUITE:
        print(f"unknown benchmark {args.name!r}; see 'repro list'",
              file=sys.stderr)
        return 2
    return _run_analysis(args, _pipeline_from(args), args.name,
                         SUITE[args.name].source)


def _cmd_bench_corpus(args) -> int:
    """``repro bench --corpus``: stream a corpus slice through the
    cached pipeline and write the BENCH_corpus.json payload."""
    from .corpus import history_benchmarks, load_manifest, run_corpus_bench

    try:
        manifest = load_manifest(args.corpus)
    except (OSError, ValueError) as error:
        print(f"bench --corpus: {error}", file=sys.stderr)
        return 2
    mach = _machine_from(args)
    pipeline = _pipeline_from(args)
    try:
        payload = run_corpus_bench(
            pipeline, manifest, mach, stratum=args.stratum, jobs=args.jobs,
            stable=args.stable, manifest_path=args.corpus,
            progress=lambda msg: print(f"corpus: {msg}", file=sys.stderr))
    except ValueError as error:
        print(f"bench --corpus: {error}", file=sys.stderr)
        return 2
    totals = payload["totals"]
    selection = payload["selection"]
    print(f"corpus bench: {selection['programs']} programs in "
          f"{len(payload['strata'])} strata on {mach.name}: "
          f"geomean SPEC/NAIVE speedup "
          f"{totals['geomean_speedup_spec_over_naive']:.4f}, "
          f"SpD applied to {totals['spd']['programs_applied']} programs "
          f"({totals['spd']['application_rate']:.1%}), "
          f"code growth {totals['code_growth_mean']:.3f}x")
    if payload["lab"]:
        lab = payload["lab"]
        print(f"corpus bench: {lab['elapsed_s']:.1f}s at --jobs "
              f"{lab['jobs']}, cache {lab['cache']['hits_mem']} mem / "
              f"{lab['cache']['hits_disk']} disk hits, "
              f"{lab['cache']['misses']} misses")
    if args.record:
        from .perf.history import append_record, make_record
        try:
            record = make_record(mach, history_benchmarks(payload))
        except ValueError as error:
            print(f"bench --corpus: {error}", file=sys.stderr)
            return 2
        append_record(args.record, record)
        print(f"corpus bench: recorded to {args.record}")
    if args.json:
        return _write_json(args.json, payload)
    return 0


def _cmd_corpus(args) -> int:
    """``repro corpus build/verify/stats``: curate, re-prove or
    summarise the committed program corpus."""
    from .corpus import (BuildSpec, build_manifest, load_manifest,
                         manifest_stats, verify_manifest, write_manifest)

    def progress(message: str) -> None:
        print(f"corpus: {message}", file=sys.stderr)

    if args.corpus_command == "build":
        spec = BuildSpec(target_size=args.target_size,
                         per_config=args.per_config,
                         campaign_seed=args.campaign_seed,
                         smoke_size=args.smoke_size)
        manifest = build_manifest(spec, jobs=args.jobs, progress=progress)
        write_manifest(args.out, manifest)
        print(f"corpus build: {len(manifest['entries'])} entries in "
              f"{len(manifest['strata'])} strata -> {args.out}")
        return 0

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as error:
        print(f"corpus {args.corpus_command}: {error}", file=sys.stderr)
        return 2
    if args.corpus_command == "verify":
        problems = verify_manifest(manifest, full=args.full,
                                   progress=progress)
        if problems:
            for problem in problems[:20]:
                print(f"corpus verify: {problem}", file=sys.stderr)
            if len(problems) > 20:
                print(f"corpus verify: ... and {len(problems) - 20} more",
                      file=sys.stderr)
            return 1
        mode = "full" if args.full else "fingerprint"
        print(f"corpus verify: {len(manifest['entries'])} entries OK "
              f"({mode} check)")
        return 0
    # stats
    stats = manifest_stats(manifest)
    if args.json:
        return _write_json(args.json, stats)
    print(f"corpus: {stats['entries']} entries "
          f"({stats['smoke_entries']} smoke), generator v"
          f"{stats['generator_version']}, {len(stats['strata'])} strata:")
    width = max(len(name) for name in stats["strata"])
    print(f"  {'stratum':<{width}s} {'programs':>9} {'smoke':>6} "
          f"{'ops min':>8} {'median':>7} {'max':>6}")
    for name, bucket in stats["strata"].items():
        print(f"  {name:<{width}s} {bucket['programs']:>9d} "
              f"{bucket['smoke']:>6d} {bucket['ops_min']:>8d} "
              f"{bucket['ops_median']:>7d} {bucket['ops_max']:>6d}")
    return 0


def _write_text(path: str, text: str) -> int:
    """Write raw *text* to *path* ('-' = stdout); return an exit status."""
    if path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write --out output: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_histograms(tracer) -> None:
    """Percentile summaries of the span-duration histograms."""
    spans = {name: summary
             for name, summary in tracer.metrics.histograms.items()
             if name.startswith("span.") and summary.count > 1}
    if not spans:
        return
    print()
    print("histograms (ms):")
    width = max(len(name) for name in spans)
    print(f"  {'':<{width}s}  {'count':>7} {'mean':>9} {'p50':>9} "
          f"{'p95':>9} {'p99':>9}")
    for name in sorted(spans):
        summary = spans[name]
        print(f"  {name:<{width}s}  {summary.count:>7d} "
              f"{summary.mean:>9.2f} {summary.percentile(50):>9.2f} "
              f"{summary.percentile(95):>9.2f} "
              f"{summary.percentile(99):>9.2f}")


def _cmd_trace(args) -> int:
    """Run the full cached pipeline under tracing; show the per-pass
    tree, or export it (``--format chrome`` / ``--format folded``)."""
    from .machine.hw import hw_machine

    if args.target in SUITE:
        label, source = args.target, SUITE[args.target].source
    else:
        try:
            label, source = args.target, _load_source(args.target)
        except OSError as error:
            print(f"{args.target!r} is neither a built-in benchmark nor "
                  f"a readable file: {error}", file=sys.stderr)
            return 2
    mach = _machine_from(args)
    # a fresh memory-only store: every stage is a cold miss, so the
    # trace shows the real pipeline (a shared disk cache would hide
    # stages behind hits)
    pipeline = _pipeline_from(args, ArtifactStore(None))
    hw_mach = (hw_machine(4, mach.memory_latency)
               if args.hw else None)
    if args.profile:
        obs.enable_profiling()
    try:
        with obs.tracing() as tracer:
            with obs.span("pipeline", program=label):
                _timed_views(pipeline, label, source, mach, args.jobs,
                             hw_mach)
                if hw_mach is not None:
                    pipeline.hw_timing(label, source, Disambiguator.SPEC,
                                       hw_mach)
    finally:
        obs.disable_profiling()
    root = tracer.finish()

    if args.format == "chrome":
        payload = obs.to_chrome_trace(root, process_name=f"repro {label}")
        return _write_text(args.out,
                           json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    if args.format == "folded":
        return _write_text(args.out, obs.to_folded_stacks(root))

    print(f"trace: {label} ({mach.name})")
    print(obs.format_span_tree(root))
    counters = tracer.metrics.counters
    if counters:
        print()
        print("metrics:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            print(f"  {name:<{width}s}  {rendered}")
    _print_histograms(tracer)
    if args.profile:
        tables = obs.format_profile_tables(root)
        if tables:
            print()
            print(tables)
    if args.json:
        payload = {"schema": "repro.trace/1", "program": label,
                   "machine": mach.to_dict(), **tracer.to_dict()}
        return _write_json(args.json, payload)
    return 0


def _cmd_schedule(args) -> int:
    from .sched.dump import format_schedule
    from .sched.list_scheduler import list_schedule

    mach = _machine_from(args)
    if mach.is_infinite:
        print("schedule dumps need a finite machine (--fus N > 0)",
              file=sys.stderr)
        return 2
    kind = Disambiguator.SPEC if args.spec else Disambiguator.STATIC
    view = _pipeline_from(args, ArtifactStore(None)).view(
        args.program, _load_source(args.program), kind, mach.memory_latency)
    for (func, name), graph in sorted(view.graphs.items()):
        if args.tree and args.tree not in name:
            continue
        print(f"=== {name} ({kind.value}) ===")
        print(format_schedule(graph, list_schedule(graph, mach)))
        print()
    return 0


def _cmd_list(_args) -> int:
    for name, benchmark in SUITE.items():
        print(f"{name:10s} {benchmark.suite:9s} {benchmark.description}")
    return 0


def _cmd_passes(_args) -> int:
    for name, cls in registered_passes().items():
        print(f"{name:10s} {cls.stage:8s} {cls.description}")
    print()
    print(f"default cleanup pipeline (--passes default): "
          f"{','.join(DEFAULT_CLEANUP)}")
    print("cleanup passes run after the view transform; the default is "
          "--passes none (the paper's unaltered toolchain)")
    return 0


def _cmd_fuzz(args) -> int:
    """Differential fuzzing campaign (see docs/fuzzing.md)."""
    from .fuzz import GeneratorConfig, OracleConfig, run_campaign

    engines = None if args.engine == "all" else (args.engine,)
    oracle_config = OracleConfig(memory_latency=args.memory, engines=engines)
    generator_config = GeneratorConfig(
        max_toplevel_stmts=args.max_stmts)

    def campaign():
        return run_campaign(
            seed=args.seed, iterations=args.iterations,
            time_budget=args.time_budget, corpus_dir=args.corpus,
            generator_config=generator_config,
            oracle_config=oracle_config,
            reduce_divergences=not args.no_reduce,
            progress=lambda msg: print(f"  {msg}"))

    print(f"fuzz: seed {args.seed}, {args.iterations} iterations"
          + (f", time budget {args.time_budget}s"
             if args.time_budget else ""))
    if args.json:
        with obs.tracing() as tracer:
            result = campaign()
        payload = {"schema": "repro.fuzz/1", **result.to_dict(),
                   **tracer.to_dict()}
        status = _write_json(args.json, payload)
        if status:
            return status
    else:
        result = campaign()
    for record in result.divergent:
        where = record.corpus_path or "(corpus disabled)"
        print(f"  reproducer for iteration {record.iteration}: {where}")
    for error in result.generator_errors:
        print(f"  generator error: {error}", file=sys.stderr)
    print(f"fuzz: {result.programs_generated} programs, "
          f"{len(result.divergent)} divergent, "
          f"{len(result.generator_errors)} generator errors "
          f"({result.views_checked} views, {result.executions} "
          f"differential executions, {result.timings_checked} timing "
          f"checks, {result.elapsed_seconds:.1f}s)")
    return 1 if result.divergent else 0


def _cmd_hwcompare(args) -> int:
    """Compiler vs. hardware disambiguation sweep (docs/hardware-baseline.md)."""
    from .experiments import hw_compare

    pipeline = _pipeline_from(args)
    names = args.names or None

    def produce():
        return hw_compare.run(pipeline, names=names,
                              memory_latency=args.memory,
                              predictor=args.predictor, jobs=args.jobs)

    if args.json:
        with obs.tracing() as tracer:
            table = produce()
        print(table.render())
        return _write_json(args.json, {"schema": "repro.hwcompare/1",
                                       **table.to_dict(),
                                       "metrics":
                                           tracer.metrics.snapshot()})
    print(produce().render())
    return 0


def _cmd_perf_check(args) -> int:
    """Measure benchmarks, diff against a baseline, gate on regression
    (see docs/observability.md, "Performance lab")."""
    from .perf import check as perf_check
    from .perf.history import append_record, make_record

    names = (args.names.split(",") if args.names else list(SUITE))
    stages = tuple(s for s in args.stages.split(",") if s)
    try:
        mach = _machine_from(args)
        result = perf_check.run_check(
            names, args.against, mach, threshold=args.threshold,
            min_ms=args.min_ms, stages=stages,
            progress=lambda msg: print(f"  {msg}"),
            engine=_engine_from(args))
    except ValueError as error:
        print(f"perf check: {error}", file=sys.stderr)
        return 2
    print(result.render())
    if args.record:
        append_record(args.record, make_record(mach, result.measured))
        print(f"recorded measurement to {args.record}")
    if args.json:
        status = _write_json(args.json, {"schema": "repro.perf_check/1",
                                         **result.to_dict()})
        if status:
            return status
    return 0 if result.ok else 1


def _cmd_perf_history(args) -> int:
    """Render the append-only perf trajectory (perf/history.jsonl)."""
    from .perf.history import load_records

    records = load_records(args.path)
    if not records:
        print(f"no history records in {args.path}", file=sys.stderr)
        return 2
    shown = records[-args.limit:] if args.limit > 0 else records
    print(f"perf history: {args.path} ({len(records)} records, "
          f"showing {len(shown)})")
    print(f"  {'timestamp':<20} {'git sha':<12} {'machine':<16} "
          f"{'benchs':>6} {'cold ms':>10} {'warm ms':>10}")
    for record in shown:
        benchmarks = record.get("benchmarks", {})
        cold = sum(b.get("wall_ms", {}).get("total", 0)
                   for b in benchmarks.values())
        warm = sum(b.get("wall_ms", {}).get("warm_total", 0)
                   for b in benchmarks.values())
        mach = record.get("machine", {})
        print(f"  {record.get('timestamp', '?'):<20} "
              f"{str(record.get('git_sha', '?'))[:12]:<12} "
              f"{mach.get('name', '?'):<16} {len(benchmarks):>6d} "
              f"{cold:>10.0f} {warm:>10.0f}")
    if args.json:
        return _write_json(args.json, {"schema": "repro.perf_history/1",
                                       "path": str(args.path),
                                       "records": shown})
    return 0


def _cmd_serve(args) -> int:
    """Serve the pipeline over HTTP/JSON (see docs/serving.md)."""
    import asyncio
    import signal

    from .serve import ServeApp, ServeConfig

    try:
        config = ServeConfig(
            host=args.host, port=args.port, jobs=args.jobs,
            queue_limit=args.queue_limit, request_timeout=args.timeout,
            cache_root=args.cache, cache_budget_mb=args.cache_budget_mb)
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2

    async def serve() -> None:
        app = ServeApp(config)
        port = await app.start()
        root = app.service.store.root
        print(f"repro serve: listening on http://{config.host}:{port}/v1/ "
              f"({config.jobs} worker{'s' if config.jobs != 1 else ''}, "
              f"cache {root if root is not None else 'memory-only'})",
              flush=True)
        # SIGTERM (a plain `kill`) unwinds like Ctrl-C, so app.stop()
        # shuts the worker pool down instead of orphaning it
        terminated = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, terminated.set)
        try:
            await terminated.wait()
        finally:
            await app.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_loadgen(args) -> int:
    """Drive a running ``repro serve``; print and optionally write the
    BENCH_serve.json payload.  Exits 1 if any request errored."""
    from .serve.loadgen import run_loadgen

    programs = None
    program_pool = "builtin"
    if args.corpus is not None:
        from .corpus import entry_source, load_manifest
        try:
            manifest = load_manifest(args.corpus)
        except (OSError, ValueError) as error:
            print(f"repro loadgen: {error}", file=sys.stderr)
            return 2
        # the smoke cross-section keeps a cold warmup interactive while
        # still spanning every stratum (program sizes 40-1500 ops)
        programs = [(entry["id"], entry_source(manifest, entry))
                    for entry in manifest["entries"] if entry.get("smoke")]
        program_pool = "corpus"
    try:
        payload = run_loadgen(
            args.host, args.port, clients=args.clients,
            requests=args.requests, seed=args.seed,
            pool_size=args.pool_size, warmup=not args.no_warmup,
            timeout=args.timeout, programs=programs,
            program_pool=program_pool)
    except (OSError, RuntimeError, ValueError) as error:
        print(f"repro loadgen: {error}", file=sys.stderr)
        return 2
    results = payload["results"]
    latency = results["latency_ms"]
    server = results["server_latency_ms"]
    print(f"loadgen: {results['requests']} requests, "
          f"{results['errors']} errors, "
          f"hit rate {results['hit_rate']:.1%}, "
          f"client p50 {latency['p50']:.2f} ms / "
          f"p95 {latency['p95']:.2f} ms, "
          f"server warm p50 {server['hit_p50']:.2f} ms, "
          f"{results['requests_per_s']:.0f} req/s")
    if args.json:
        status = _write_json(args.json, payload)
        if status:
            return status
    return 1 if results["errors"] else 0


def _cmd_report(args) -> int:
    from .experiments import (ablation, figure6_2, figure6_3, figure6_4,
                              table6_1, table6_2, table6_3)
    jobs = args.jobs
    pipeline = _pipeline_from(args)
    producers = {
        "table6_1": lambda: table6_1.run(),
        "table6_2": lambda: table6_2.run(),
        "table6_3": lambda: table6_3.run(pipeline, jobs=jobs),
        "figure6_2": lambda: figure6_2.run(pipeline, jobs=jobs),
        "figure6_3": lambda: figure6_3.run(pipeline, jobs=jobs),
        "figure6_4": lambda: figure6_4.run(pipeline, jobs=jobs),
        "ablation_knobs": lambda: ablation.run_knob_sweep(
            pipeline, max_expansions=(1.25, 2.0), min_gains=(0.5, 2.0),
            jobs=jobs),
        "ablation_alias_prob":
            lambda: ablation.run_alias_probability_study(pipeline,
                                                         jobs=jobs),
        "ablation_grafting":
            lambda: ablation.run_grafting_study(pipeline, jobs=jobs),
        "ablation_combined": lambda: ablation.run_combined_study(),
    }
    wanted = list(producers) if args.which == "all" else [args.which]
    results: Dict[str, dict] = {}

    def produce() -> None:
        for which in wanted:
            result = producers[which]()
            print(result.render())
            print()
            if args.json:
                results[which] = result.to_dict()

    if args.json or args.profile:
        # metrics expose pipeline cache effectiveness: a warm run shows
        # pipeline.cache_hits.disk instead of pipeline.cache_misses
        if args.profile:
            obs.enable_profiling()
        try:
            with obs.tracing() as tracer:
                produce()
        finally:
            obs.disable_profiling()
        if args.profile:
            tables = obs.format_profile_tables(tracer.root)
            if tables:
                print(tables)
                print()
        if args.json:
            return _write_json(args.json, {"schema": "repro.report/1",
                                           "results": results,
                                           "metrics":
                                               tracer.metrics.snapshot()})
        return 0
    produce()
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser without prefix matching (``allow_abbrev=False``), so an
    unknown option such as ``analyze --profile`` is an error rather
    than a silent ``--profiled-alias``.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    from .perf import check as perf_defaults

    parser = _Parser(
        prog="repro",
        description="Speculative Disambiguation (ISCA 1994) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spd_flags(p):
        p.add_argument("--max-expansion", type=float,
                       default=SpDConfig.max_expansion,
                       help="SpD MaxExpansion code-growth bound")
        p.add_argument("--min-gain", type=float, default=SpDConfig.min_gain,
                       help="SpD MinGain predicted-cycles threshold")
        p.add_argument("--profiled-alias", action="store_true",
                       help="weight Gain() by profiled alias probability")
        add_pass_flags(p)

    def add_pass_flags(p):
        p.add_argument("--passes", metavar="LIST", default=None,
                       help="cleanup passes to run after each view "
                            "transform: comma-separated names, 'default' "
                            f"(={','.join(DEFAULT_CLEANUP)}) or 'none' "
                            "(the default; see 'repro passes')")
        p.add_argument("--dump-after", metavar="PASS", action="append",
                       default=None,
                       help="print the IR to stderr after this pass "
                            "(repeatable)")

    def add_engine_flag(p):
        p.add_argument("--engine", choices=engine_names(),
                       default=DEFAULT_ENGINE,
                       help="execution engine for program runs "
                            "(default %(default)s; all engines are "
                            "reference-identical, see docs/architecture.md)")

    def add_machine_flags(p):
        p.add_argument("--fus", type=int, default=5,
                       help="functional units (0 = infinite machine)")
        p.add_argument("--memory", type=int, choices=(2, 6), default=6,
                       help="memory latency in cycles")
        p.add_argument("--graft", action="store_true",
                       help="enlarge decision trees by tail duplication")
        add_engine_flag(p)
        add_spd_flags(p)

    def add_json_flag(p):
        p.add_argument("--json", metavar="OUT", default=None,
                       help="also write a machine-readable result "
                            "(- for stdout)")

    def add_jobs_flag(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the timing matrix "
                            "(default 1 = serial; identical output)")

    def add_profile_flag(p):
        p.add_argument("--profile", action="store_true",
                       help="run cProfile per pipeline stage; top hot-"
                            "function tables land in the trace/--json "
                            "output (docs/observability.md)")

    p_run = sub.add_parser("run", help="execute a tinyc program")
    p_run.add_argument("program", help="tinyc source file, or - for stdin")
    add_engine_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_compile = sub.add_parser("compile", help="dump decision-tree IR")
    p_compile.add_argument("program")
    p_compile.add_argument("--graft", action="store_true")
    p_compile.set_defaults(func=_cmd_compile)

    p_analyze = sub.add_parser(
        "analyze", help="cycles under all four disambiguators")
    p_analyze.add_argument("program")
    add_machine_flags(p_analyze)
    add_json_flag(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_bench = sub.add_parser(
        "bench", help="analyse a built-in benchmark or the whole corpus")
    p_bench.add_argument("name", nargs="?", default=None,
                         help="built-in benchmark name (omit with --corpus)")
    add_machine_flags(p_bench)
    add_json_flag(p_bench)
    add_jobs_flag(p_bench)
    add_profile_flag(p_bench)
    p_bench.add_argument("--corpus", nargs="?", metavar="MANIFEST",
                         const=str(_DEFAULT_CORPUS_MANIFEST), default=None,
                         help="run the generated corpus instead of one "
                              "benchmark (default manifest: %(const)s)")
    p_bench.add_argument("--stratum", default=None, metavar="S",
                         help="corpus slice: a stratum name or 'smoke' "
                              "(default: the whole corpus)")
    p_bench.add_argument("--stable", action="store_true",
                         help="strip host-dependent lab telemetry so the "
                              "corpus payload is byte-identical across "
                              "reruns and --jobs values")
    p_bench.add_argument("--record", metavar="PATH", default=None,
                         help="append the corpus run to a perf-history "
                              "JSONL file")
    p_bench.set_defaults(func=_cmd_bench)

    p_corpus = sub.add_parser(
        "corpus", help="curate / verify / summarise the program corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_cbuild = corpus_sub.add_parser(
        "build", help="drive the generator seed grid into a manifest")
    p_cbuild.add_argument("--out", default=str(_DEFAULT_CORPUS_MANIFEST),
                          help="manifest destination (default %(default)s)")
    p_cbuild.add_argument("--target-size", type=int, default=1000,
                          metavar="N",
                          help="entries to select (default %(default)s)")
    p_cbuild.add_argument("--per-config", type=int, default=170, metavar="N",
                          help="candidate seeds per generator config "
                               "(default %(default)s)")
    p_cbuild.add_argument("--campaign-seed", type=int, default=2026,
                          help="base seed of the grid (default %(default)s)")
    p_cbuild.add_argument("--smoke-size", type=int, default=30, metavar="N",
                          help="entries flagged for the CI smoke slice "
                               "(default %(default)s)")
    add_jobs_flag(p_cbuild)
    p_cbuild.set_defaults(func=_cmd_corpus)

    p_cverify = corpus_sub.add_parser(
        "verify", help="regenerate every entry and check fingerprints")
    p_cverify.add_argument("--manifest",
                           default=str(_DEFAULT_CORPUS_MANIFEST),
                           help="manifest to verify (default %(default)s)")
    p_cverify.add_argument("--full", action="store_true",
                           help="also re-measure features, op counts and "
                                "strata (a frontend run per entry)")
    p_cverify.set_defaults(func=_cmd_corpus)

    p_cstats = corpus_sub.add_parser(
        "stats", help="per-stratum summary of a manifest")
    p_cstats.add_argument("--manifest",
                          default=str(_DEFAULT_CORPUS_MANIFEST),
                          help="manifest to summarise (default %(default)s)")
    add_json_flag(p_cstats)
    p_cstats.set_defaults(func=_cmd_corpus)

    p_trace = sub.add_parser(
        "trace", help="per-pass timing tree and metrics for one program")
    p_trace.add_argument("target",
                         help="built-in benchmark name or tinyc source file")
    add_machine_flags(p_trace)
    add_json_flag(p_trace)
    add_jobs_flag(p_trace)
    add_profile_flag(p_trace)
    p_trace.add_argument("--format", choices=("text", "chrome", "folded"),
                         default="text",
                         help="text tree (default), Chrome trace-event "
                              "JSON for Perfetto/chrome://tracing, or "
                              "folded stacks for flamegraph tools")
    p_trace.add_argument("--out", metavar="FILE", default="-",
                         help="destination for --format chrome/folded "
                              "(default: stdout)")
    p_trace.add_argument("--hw", action="store_true",
                         help="also run the hwtime stage (SPEC view on a "
                              "4-wide dynamically scheduled machine) so "
                              "all five pipeline stages appear")
    p_trace.set_defaults(func=_cmd_trace)

    p_sched = sub.add_parser(
        "schedule", help="dump the VLIW schedule of a program's trees")
    p_sched.add_argument("program")
    p_sched.add_argument("--tree", default=None,
                         help="only this tree (substring match)")
    p_sched.add_argument("--spec", action="store_true",
                         help="schedule the SPEC-transformed program")
    add_machine_flags(p_sched)
    p_sched.set_defaults(func=_cmd_schedule)

    p_list = sub.add_parser("list", help="list built-in benchmarks")
    p_list.set_defaults(func=_cmd_list)

    p_passes = sub.add_parser("passes", help="list registered program passes")
    p_passes.set_defaults(func=_cmd_passes)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the whole pipeline")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0); iteration i "
                             "fuzzes program seed*1000003+i")
    p_fuzz.add_argument("--iterations", type=int, default=100, metavar="N",
                        help="programs to generate and check (default 100)")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop early after this much wall time")
    p_fuzz.add_argument("--corpus", metavar="DIR", default="fuzz-corpus",
                        help="directory for reduced reproducers "
                             "(default fuzz-corpus/)")
    p_fuzz.add_argument("--max-stmts", type=int, default=7, metavar="N",
                        help="top-level statement budget per program")
    p_fuzz.add_argument("--memory", type=int, choices=(2, 6), default=2,
                        help="memory latency for the oracle's machines")
    p_fuzz.add_argument("--no-reduce", action="store_true",
                        help="archive diverging programs unreduced")
    p_fuzz.add_argument("--engine",
                        choices=engine_names() + ("all",),
                        default="all",
                        help="execution engine(s) for the differential "
                             "checks (default all: every registered "
                             "engine)")
    add_json_flag(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_hw = sub.add_parser(
        "hwcompare",
        help="compiler vs. hardware dynamic disambiguation sweep")
    p_hw.add_argument("names", nargs="*", metavar="NAME",
                      help="benchmarks to sweep (default: all)")
    p_hw.add_argument("--memory", type=int, choices=(2, 6), default=2,
                      help="memory latency in cycles (default 2)")
    p_hw.add_argument("--predictor", choices=list(PREDICTOR_NAMES),
                      default="store-set",
                      help="memory-dependence predictor of the hardware "
                           "configs (default store-set)")
    add_engine_flag(p_hw)
    add_spd_flags(p_hw)
    add_json_flag(p_hw)
    add_jobs_flag(p_hw)
    p_hw.set_defaults(func=_cmd_hwcompare)

    p_serve = sub.add_parser(
        "serve", help="compilation-as-a-service HTTP server")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default %(default)s)")
    p_serve.add_argument("--port", type=int, default=8377,
                         help="bind port (default %(default)s; 0 = "
                              "ephemeral)")
    p_serve.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="worker processes computing cache misses "
                              "(default %(default)s)")
    p_serve.add_argument("--queue-limit", type=int, default=256, metavar="N",
                         help="in-flight computation bound; beyond it "
                              "requests get 503 (default %(default)s)")
    p_serve.add_argument("--timeout", type=float, default=120.0,
                         metavar="SECONDS",
                         help="per-request budget before a 504 "
                              "(default %(default)s)")
    p_serve.add_argument("--cache", metavar="DIR", default=None,
                         help="artifact cache directory (default "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-spd; "
                              "--cache= for memory-only)")
    p_serve.add_argument("--cache-budget-mb", type=float, default=None,
                         metavar="MB",
                         help="LRU size budget of the on-disk cache "
                              "(default: unbounded)")
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen", help="drive a running 'repro serve' and benchmark it")
    p_loadgen.add_argument("--host", default="127.0.0.1",
                           help="server address (default %(default)s)")
    p_loadgen.add_argument("--port", type=int, default=8377,
                           help="server port (default %(default)s)")
    p_loadgen.add_argument("--clients", type=int, default=8, metavar="N",
                           help="concurrent client threads "
                                "(default %(default)s)")
    p_loadgen.add_argument("--requests", type=int, default=200, metavar="N",
                           help="total requests across all clients "
                                "(default %(default)s)")
    p_loadgen.add_argument("--seed", type=int, default=0,
                           help="request-mix seed (default %(default)s)")
    p_loadgen.add_argument("--pool-size", type=int, default=12, metavar="N",
                           help="distinct request shapes in the pool "
                                "(default %(default)s)")
    p_loadgen.add_argument("--no-warmup", action="store_true",
                           help="skip the serial warmup pass (measures a "
                                "cold cache)")
    p_loadgen.add_argument("--timeout", type=float, default=60.0,
                           metavar="SECONDS",
                           help="per-request client timeout "
                                "(default %(default)s)")
    p_loadgen.add_argument("--corpus", nargs="?", metavar="MANIFEST",
                           const=str(_DEFAULT_CORPUS_MANIFEST), default=None,
                           help="draw request programs from a corpus "
                                "manifest's smoke slice instead of the "
                                "built-in benchmarks (default manifest: "
                                "%(const)s)")
    add_json_flag(p_loadgen)
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_report = sub.add_parser("report", help="regenerate a table/figure")
    p_report.add_argument("which", choices=[
        "table6_1", "table6_2", "table6_3",
        "figure6_2", "figure6_3", "figure6_4",
        "ablation_knobs", "ablation_alias_prob", "ablation_grafting",
        "ablation_combined", "all"])
    add_engine_flag(p_report)
    add_spd_flags(p_report)
    add_json_flag(p_report)
    add_jobs_flag(p_report)
    add_profile_flag(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_perf = sub.add_parser(
        "perf", help="performance lab: regression gate and bench history")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_check = perf_sub.add_parser(
        "check", help="re-measure benchmarks and diff against a baseline")
    p_check.add_argument("--against", required=True, metavar="BASELINE",
                         help="baseline file: BENCH_spd.json-style snapshot "
                              "or perf/history.jsonl trajectory (each "
                              "benchmark's newest record on this machine)")
    p_check.add_argument("--names", default=None,
                         help="comma-separated benchmark subset "
                              "(default: all built-ins)")
    p_check.add_argument("--threshold", type=float,
                         default=perf_defaults.DEFAULT_THRESHOLD,
                         help="relative wall-time growth tolerated before "
                              "a stage regresses (default %(default)s)")
    p_check.add_argument("--min-ms", type=float,
                         default=perf_defaults.DEFAULT_MIN_MS,
                         help="absolute floor: deltas below this many ms "
                              "never regress (default %(default)s)")
    p_check.add_argument("--stages",
                         default=",".join(perf_defaults.DEFAULT_STAGES),
                         help="comma-separated wall_ms stages to gate "
                              "(default %(default)s)")
    p_check.add_argument("--fus", type=int, default=5)
    p_check.add_argument("--memory", type=int, choices=(2, 6), default=6)
    add_engine_flag(p_check)
    p_check.add_argument("--record", metavar="PATH", default=None,
                         help="also append this measurement to a history "
                              "JSONL file")
    add_json_flag(p_check)
    p_check.set_defaults(func=_cmd_perf_check)

    p_history = perf_sub.add_parser(
        "history", help="render the append-only perf trajectory")
    p_history.add_argument("--path", default="perf/history.jsonl",
                           help="history file (default %(default)s)")
    p_history.add_argument("--limit", type=int, default=10, metavar="N",
                           help="show only the last N records "
                                "(0 = all, default %(default)s)")
    add_json_flag(p_history)
    p_history.set_defaults(func=_cmd_perf_history)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* (default: sys.argv) and run the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
