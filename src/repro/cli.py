"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available experiments, algorithms and models.
``run FIG [--full] [--jobs N] [--no-cache] [--cache-dir DIR]``
    Run one experiment driver (e.g. ``fig7``) through the parallel
    sweep engine and print its table.  ``--jobs`` defaults to one
    worker per CPU; results are cached content-addressed under
    ``~/.cache/repro-hios`` (or ``$REPRO_CACHE_DIR``) so re-runs are
    warm no-ops unless ``--no-cache`` is given.
``cache stats|clear [--cache-dir DIR] [--kind KIND]``
    Inspect or empty the content-addressed caches (sweep results and
    schedules share one tree); ``stats`` breaks the footprint down by
    entry kind and document format, ``clear --kind`` purges one kind
    (e.g. ``schedule`` or ``corrupt``) and leaves the rest warm.
``schedule --model NAME --size N [--algorithm A] [--gpus M] [...]``
    Profile a model, schedule it, execute it on the engine, and print
    predicted vs measured latency (optionally dumping schedule JSON).
``report [--results DIR]``
    Render the paper-vs-measured claim table from the JSON artifacts
    the benchmark harness writes under ``benchmarks/results/``.
``compare --model NAME [--algorithms A B ...]``
    Run several algorithms on one model and tabulate predicted and
    engine-measured latency, crossings, stage widths and the
    optimality gap.
``validate GRAPH.json SCHEDULE.json``
    Feasibility-check a schedule against a priced graph and print its
    predicted latency (exit 1 on an invalid schedule).
``faults --model NAME --fault SPEC [...]``
    Latency-under-faults sweep: run several algorithms on one model
    under an injected fault plan (GPU slowdowns/failures, link
    degradation, transfer loss) and tabulate fault-free, faulted and
    repaired latency — repairs now *cascade* across repeated failures.
    Fault specs: ``fail:G@T``, ``repair:G@T``, ``slow:G@TxF``,
    ``link:S->D@TxF``, ``loss:P[:jitter]``.  Exit 1 when any run ends
    unrecovered.
``serve --scenario NAME | --config FILE [--json] [...]``
    Fault-tolerant online serving simulation (:mod:`repro.serve`):
    multi-tenant request streams over a shared GPU pool with admission
    control, deadline shedding, graceful degradation under overload,
    per-query retry, and cascading repair of mid-flight GPU failures.
    Prints the SLO report (p50/p99, goodput, deadline-miss rate,
    shed/retry/repair counters); exports the pool timeline
    (``--trace-out``) and the per-request decision log
    (``--decisions-out``).  Exit 1 when any admitted query failed.
``lint [FILES...] [--fault SPEC ...] [--json] [--rules]``
    Run the :mod:`repro.lint` rule packs over JSON documents of any
    format in :data:`repro.formats.FORMATS` (auto-detected) and fault
    specs, and report *every* finding with its rule ID, severity and
    file instead of stopping at the first.  Exit 1 when an
    error-severity rule fires.
``trace export|report|diff``
    Observability over persisted traces (:mod:`repro.obs`):
    ``export`` converts a ``repro.trace/v1`` document to Chrome/Perfetto
    ``trace_event`` JSON, ``report`` prints the latency attribution
    (per-GPU compute/transfer/overhead/idle plus the realized critical
    path), ``diff`` compares two traces op by op.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable

from .core.api import ALGORITHMS, algorithm_options, schedule_graph
from .core.fasteval import EvalCounters
from .costmodel.profile import CostProfile
from .experiments import EXPERIMENTS, ExperimentConfig, default_config
from .experiments.realmodels import MODEL_BUILDERS, default_profiler, model_sizes
from .formats import FORMATS, Document, DocumentError, read_document
from .serve.config import ServeConfigError
from .substrate.faults import FaultError
from .substrate.profiler import PlatformProfiler
from .utils import render_schedule_table

__all__ = ["main", "build_parser"]


class FlagError(Exception):
    """A command-line value outside the range its flag accepts."""


def _in_range(need: str, ok: Callable[[Any], bool]) -> type[argparse.Action]:
    """An action that stores the flag's converted value, or raises
    :class:`FlagError` (one ``error:`` line, exit 2) unless ``ok``."""

    class InRange(argparse.Action):
        def __call__(
            self,
            parser: argparse.ArgumentParser,
            namespace: argparse.Namespace,
            values: Any,
            option_string: str | None = None,
        ) -> None:
            if not ok(values):
                raise FlagError(f"{option_string} {values}: must be {need}")
            setattr(namespace, self.dest, values)

    return InRange


#: counts of at least one: GPUs, window, input size, instances
_COUNT = _in_range(">= 1", lambda v: v >= 1)
#: counts where 0 means none or unbounded: jobs, repairs, streams
_BUDGET = _in_range(">= 0", lambda v: v >= 0)
#: finite, non-negative: timestamp tolerances, the watchdog horizon
_TOLERANCE = _in_range("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HIOS reproduction (CLUSTER 2023): schedulers, "
        "simulated multi-GPU runtime, per-figure experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, algorithms and models")

    run = sub.add_parser("run", help="run one experiment driver")
    run.add_argument("figure", choices=sorted(EXPERIMENTS))
    run.add_argument("--full", action="store_true", help="paper-scale config (30 instances)")
    run.add_argument(
        "--instances", type=int, default=None, action=_COUNT,
        help="override instance count",
    )
    run.add_argument("--plot", action="store_true", help="render an ASCII chart")
    run.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N", action=_BUDGET,
        help="sweep worker processes (default: one per CPU; 1 = serial)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-hios)",
    )
    run.add_argument(
        "--no-progress", action="store_true",
        help="suppress the progress lines on stderr",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="replay each engine-measured unit and export a Chrome "
        "trace per unit into DIR (works on a warm cache too)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed caches"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-hios)",
    )
    cache.add_argument(
        "--kind", default=None, metavar="KIND",
        help="restrict 'clear' to one entry kind (e.g. latency, schedule, "
        "corrupt); default clears everything",
    )

    sched = sub.add_parser("schedule", help="schedule + execute one model")
    sched.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="inception_v3")
    sched.add_argument(
        "--size", type=int, default=None, action=_COUNT,
        help="input size in pixels (default: the first size of the model's sweep)",
    )
    sched.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="hios-lp")
    sched.add_argument("--gpus", type=int, default=2, action=_COUNT)
    sched.add_argument(
        "--window", type=int, default=3, action=_COUNT, help="Alg. 2 max window size"
    )
    sched.add_argument("--json", action="store_true", help="print schedule JSON")
    sched.add_argument("--stages", action="store_true", help="print stage layout")
    sched.add_argument(
        "--profile-sched",
        action="store_true",
        help="print the per-phase scheduling time breakdown and the "
        "incremental-engine evaluation counters",
    )
    sched.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the engine trace as Chrome/Perfetto trace_event "
        "JSON (open in ui.perfetto.dev or chrome://tracing)",
    )
    sched.add_argument(
        "--decisions-out", default=None, metavar="PATH",
        help="capture the scheduler's decision log (HIOS-LP path "
        "winners, Alg. 2 window accept/reject) as JSONL",
    )
    sched.add_argument(
        "--sched-cache", action="store_true",
        help="serve the schedule from the persistent schedule cache "
        "(repro.schedcache/v1), computing and storing it on a miss",
    )
    sched.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-hios)",
    )

    report = sub.add_parser(
        "report", help="paper-vs-measured report from benchmark artifacts"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="artifact directory"
    )

    compare = sub.add_parser(
        "compare", help="run several algorithms on one model and compare"
    )
    compare.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="inception_v3")
    compare.add_argument("--size", type=int, default=None, action=_COUNT)
    compare.add_argument("--gpus", type=int, default=2, action=_COUNT)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["sequential", "ios", "hios-mr", "hios-lp"],
        choices=sorted(ALGORITHMS),
    )

    faults = sub.add_parser(
        "faults", help="latency under an injected fault plan, with repair"
    )
    faults.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="inception_v3")
    faults.add_argument("--size", type=int, default=None, action=_COUNT)
    faults.add_argument("--gpus", type=int, default=4, action=_COUNT)
    faults.add_argument(
        "--algorithms",
        nargs="+",
        default=["sequential", "ios", "hios-mr", "hios-lp"],
        choices=sorted(ALGORITHMS),
    )
    faults.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="repeatable: fail:G@T | repair:G@T | slow:G@TxF | link:S->D@TxF | loss:P",
    )
    faults.add_argument("--seed", type=int, default=0, help="fault plan seed")
    faults.add_argument(
        "--no-repair", action="store_true", help="report the failure, do not repair"
    )
    faults.add_argument(
        "--watchdog", type=float, default=0.0, action=_TOLERANCE,
        help="engine watchdog horizon in ms (0 = disabled)",
    )
    faults.add_argument(
        "--max-repairs", type=int, default=None, metavar="N", action=_BUDGET,
        help="cap the cascading repair rounds (default: unbounded)",
    )

    from .serve.scenarios import SCENARIOS

    serve = sub.add_parser(
        "serve",
        help="online multi-tenant serving simulation with SLO report",
        description="Simulate a stream of inference queries from several "
        "tenants sharing one GPU pool: admission control, deadline "
        "shedding, degradation under overload, retries, and cascading "
        "repair of GPU failures. Exit 1 when any admitted query failed.",
    )
    src = serve.add_mutually_exclusive_group()
    src.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="steady-state",
        help="built-in seeded scenario (default: steady-state)",
    )
    src.add_argument(
        "--config", default=None, metavar="FILE",
        help="repro.serve/v1 JSON config (linted before the run)",
    )
    serve.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    serve.add_argument(
        "--horizon", type=float, default=None, metavar="MS",
        help="override the arrival horizon in ms",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the repro.servereport/v1 document",
    )
    serve.add_argument(
        "--requests", action="store_true",
        help="with --json: include every per-request record",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the pool timeline as Chrome/Perfetto trace_event JSON",
    )
    serve.add_argument(
        "--decisions-out", default=None, metavar="PATH",
        help="capture the admission/dispatch/outcome decision log as JSONL",
    )
    serve.add_argument(
        "--sched-cache", action="store_true",
        help="back the planner memo with the persistent schedule cache "
        "(repro.schedcache/v1) so restarts reuse warm schedules",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-hios)",
    )

    validate = sub.add_parser(
        "validate", help="check a schedule JSON against a priced graph JSON"
    )
    validate.add_argument("graph", help="graph document from save_graph()")
    validate.add_argument("schedule", help="schedule document from Schedule.to_json()")
    validate.add_argument(
        "--gpus", type=int, default=None, help="override the schedule's GPU count"
    )

    lint = sub.add_parser(
        "lint",
        help="static-analyze graph/schedule/trace JSON documents and fault specs",
        description="Run the repro.lint rule packs over JSON documents "
        "(auto-detected) and --fault specs: one graph, schedule and trace "
        "together, every other document on its own. Exit 1 when any "
        "error-severity rule fires, 2 on an input that cannot be used.",
    )
    lint.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="JSON documents: " + ", ".join(fmt.label for fmt in FORMATS),
    )
    lint.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="repeatable: fail:G@T | repair:G@T | slow:G@TxF | link:S->D@TxF | loss:P",
    )
    lint.add_argument("--seed", type=int, default=0, help="fault plan seed")
    lint.add_argument(
        "--gpus", type=int, default=None, help="GPU count for fault-target checks"
    )
    lint.add_argument(
        "--window", type=int, default=None, help="Alg. 2 window bound to enforce"
    )
    lint.add_argument(
        "--horizon", type=float, default=None,
        help="run horizon in ms for fault-timing checks",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="happens-before analysis: static deadlock/race detection "
        "and trace linearization checks",
        description="Compile a (graph, schedule) pair into an explicit "
        "happens-before graph under the engine's execution model, run "
        "the static detectors (deadlock witness cycle, cross-GPU and "
        "stream-level ordering hazards, nondeterminism), and verify any "
        "supplied repro.trace/v1 documents — or named serve scenarios — "
        "against it with the vector-clock checker. Exit 1 on any "
        "error-severity finding.",
    )
    sanitize.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="JSON documents, auto-detected: one repro.opgraph/v1 graph, "
        "one schedule, and any number of repro.trace/v1 traces",
    )
    sanitize.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME",
        help="repeatable: run a named serve scenario and check its pool "
        "timeline for lease-order linearization",
    )
    sanitize.add_argument(
        "--overlap-launch", action="store_true",
        help="model the overlap-launch engine mode (data edges gate "
        "kernel start instead of host launch)",
    )
    sanitize.add_argument(
        "--max-streams", type=int, default=0, metavar="N", action=_BUDGET,
        help="streams per GPU in the model (0 = serial device, the "
        "engine default)",
    )
    sanitize.add_argument(
        "--no-data-wait", action="store_true",
        help="audit mode: drop per-message synchronization from the "
        "model (expects to flag every cross-GPU edge)",
    )
    sanitize.add_argument(
        "--eps", type=float, default=1e-6, action=_TOLERANCE,
        help="timestamp tolerance for the trace checks",
    )
    sanitize.add_argument(
        "--json", action="store_true",
        help="emit the repro.hbreport/v1 document",
    )

    trace = sub.add_parser(
        "trace",
        help="export, attribute or diff persisted execution traces",
        description="Observability over repro.trace/v1 documents: Chrome "
        "trace_event export, latency attribution with the realized "
        "critical path, and op-by-op trace comparison.",
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    texport = tsub.add_parser(
        "export", help="convert a trace to Chrome/Perfetto trace_event JSON"
    )
    texport.add_argument("trace", help="repro.trace/v1 JSON document")
    texport.add_argument(
        "--schedule", required=True,
        help="schedule JSON the trace was executed under (operator-to-GPU map)",
    )
    texport.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output file (default: stdout)",
    )
    texport.add_argument(
        "--process-name", default="hios", help="process label in the viewer"
    )

    treport = tsub.add_parser(
        "report", help="latency attribution + realized critical path"
    )
    treport.add_argument("trace", help="repro.trace/v1 JSON document")
    treport.add_argument(
        "--schedule", required=True,
        help="schedule JSON the trace was executed under",
    )
    treport.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    tdiff = tsub.add_parser("diff", help="compare two traces op by op")
    tdiff.add_argument("trace_a", help="baseline repro.trace/v1 document")
    tdiff.add_argument("trace_b", help="comparison repro.trace/v1 document")
    tdiff.add_argument(
        "--eps", type=float, default=1e-6, action=_TOLERANCE,
        help="timestamp delta below which operators count as unshifted",
    )
    tdiff.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("algorithms:")
    for name in sorted(ALGORITHMS):
        print(f"  {name}")
    print("models:")
    for name in sorted(MODEL_BUILDERS):
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.full() if args.full else default_config()
    if args.instances is not None:
        config = config.with_(instances=args.instances)
    config = config.with_(
        # CLI default: one worker per CPU, cache on, progress on —
        # the library default stays serial/uncached for embedders
        jobs=args.jobs if args.jobs is not None else 0,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=not args.no_progress,
        trace_dir=args.trace_out,
    )
    result = EXPERIMENTS[args.figure](config)
    print(result.to_text())
    if args.plot:
        from .utils import plot_series_result

        print()
        print(plot_series_result(result))
    return 0


def _model_profile(args: argparse.Namespace) -> tuple[int, PlatformProfiler, CostProfile]:
    """``--model`` at ``--size`` profiled on ``--gpus`` A40s: the size,
    the profiler and the profile.  The default size is the first of the
    model's figure sweep; a size below the model's minimum is a
    :class:`FlagError`."""
    size = args.size if args.size is not None else model_sizes(args.model, ExperimentConfig())[0]
    try:
        graph = MODEL_BUILDERS[args.model](size)
    except ValueError as exc:  # e.g. "Inception-v3 needs input_size >= 75"
        raise FlagError(f"--size {size}: {exc}") from None
    profiler = default_profiler(num_gpus=args.gpus)
    return size, profiler, profiler.profile(graph)


def _cmd_schedule(args: argparse.Namespace) -> int:
    size, profiler, profile = _model_profile(args)
    kwargs: dict[str, object] = (
        {"window": args.window} if "window" in algorithm_options(args.algorithm) else {}
    )

    def run_scheduler():  # -> ScheduleResult
        if args.sched_cache:
            from .sweep import ScheduleCache, cached_schedule

            result, hit = cached_schedule(
                profile,
                args.algorithm,
                cache=ScheduleCache(args.cache_dir),
                **kwargs,
            )
            print(f"schedule cache: {'hit' if hit else 'miss'}")
            return result
        return schedule_graph(profile, args.algorithm, **kwargs)

    if args.decisions_out:
        from .obs import capture_decisions

        with capture_decisions() as decisions:
            result = run_scheduler()
        decisions.write_jsonl(args.decisions_out)
        print(
            f"wrote {len(decisions)} decision record(s) to {args.decisions_out}"
        )
    else:
        result = run_scheduler()
    trace = profiler.engine().run(profile.graph, result.schedule)
    if args.trace_out:
        from .obs import save_chrome_trace

        save_chrome_trace(
            trace, result.schedule.assignment(), args.trace_out,
            process_name=f"{args.model}@{size}",
        )
        print(f"wrote Chrome trace to {args.trace_out}")
    print(
        f"{args.model}@{size} | {args.algorithm} on {args.gpus} GPU(s): "
        f"predicted {result.latency:.3f} ms, measured {trace.latency:.3f} ms, "
        f"{trace.num_transfers} transfers, scheduling took "
        f"{result.scheduling_time:.2f} s"
    )
    if args.profile_sched:
        phases = result.stats.get("phase_times", {})
        if isinstance(phases, dict) and phases:
            total = result.scheduling_time
            print("scheduling time breakdown:")
            for phase, secs in phases.items():
                share = 100.0 * secs / total if total > 0 else 0.0
                print(f"  {phase:<16} {secs * 1000:9.2f} ms  ({share:5.1f}%)")
            other = total - sum(phases.values())
            print(f"  {'other':<16} {other * 1000:9.2f} ms")
        counters = {
            k: result.stats[k] for k in EvalCounters().to_stats() if k in result.stats
        }
        if counters:
            print("evaluation counters:")
            for key, value in counters.items():
                print(f"  {key:<18} {value}")
    if args.stages:
        print(render_schedule_table(result.schedule))
    if args.json:
        print(result.schedule.to_json(indent=2))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .sweep import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(json.dumps(cache.stats(), indent=2))
        return 0
    removed = cache.clear(kind=args.kind)
    scope = f" of kind {args.kind!r}" if args.kind else ""
    print(f"removed {removed} cache entrie(s){scope} from {cache.root}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core.analysis import analyze_schedule
    from .core.bounds import latency_lower_bound, optimality_gap
    from .experiments.reporting import format_table

    size, profiler, profile = _model_profile(args)
    engine = profiler.engine()
    rows = []
    for alg in args.algorithms:
        res = schedule_graph(profile, alg)
        trace = engine.run(profile.graph, res.schedule)
        metrics = analyze_schedule(profile, res.schedule)
        rows.append(
            [
                alg,
                res.latency,
                trace.latency,
                metrics.num_cross_edges,
                metrics.max_stage_width,
                f"{optimality_gap(profile, res):.2f}",
            ]
        )
    print(
        f"{args.model}@{size} on {args.gpus} GPU(s); lower bound "
        f"{latency_lower_bound(profile):.3f} ms\n"
    )
    print(
        format_table(
            ["algorithm", "predicted ms", "measured ms", "crossings", "max width", "gap"],
            rows,
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .core.repair import run_with_repair
    from .experiments.reporting import format_table
    from .substrate.engine import EngineError, MultiGpuEngine
    from .substrate.faults import FaultPlan

    plan = FaultPlan.from_strings(args.fault, seed=args.seed)
    size, profiler, profile = _model_profile(args)
    clean_engine = profiler.engine()
    faulted_cfg = replace(
        clean_engine.config, faults=plan, watchdog_horizon_ms=args.watchdog
    )

    rows = []
    unrecovered = False
    for alg in sorted(set(args.algorithms), key=args.algorithms.index):
        res = schedule_graph(profile, alg)
        clean = clean_engine.run(profile.graph, res.schedule)
        faulted = repaired = rounds = slowdown = "—"
        try:
            if args.no_repair:
                trace = MultiGpuEngine(faulted_cfg).run(profile.graph, res.schedule)
                repairs: tuple = ()
            else:
                trace, repairs = run_with_repair(
                    profile,
                    res.schedule,
                    config=faulted_cfg,
                    algorithm=alg,
                    max_repairs=args.max_repairs,
                    strict=False,
                )
            if trace.failure is None:
                faulted = f"{trace.latency:.3f}"
                slowdown = f"{trace.latency / clean.latency:.2f}x"
            else:
                # with cascading repair the spliced trace carries the
                # *last* failure; the first repair records the first cut
                first = repairs[0].failure if repairs else trace.failure
                faulted = f"fail@{first.time:.3f}"
                rounds = str(len(repairs))
                if trace.unfinished_ops(profile.graph.names):
                    repaired = "unrecovered"
                    unrecovered = True
                else:
                    repaired = f"{trace.latency:.3f}"
                    slowdown = f"{trace.latency / clean.latency:.2f}x"
        except (EngineError, FaultError) as exc:
            faulted = f"error: {exc}"
            unrecovered = True
        rows.append([alg, f"{clean.latency:.3f}", faulted, repaired, rounds, slowdown])

    plan_desc = ", ".join(args.fault) if args.fault else "none (fault-free)"
    print(
        f"{args.model}@{size} on {args.gpus} GPU(s); faults: {plan_desc}; "
        f"seed {args.seed}\n"
    )
    print(
        format_table(
            ["algorithm", "fault-free ms", "faulted", "repaired ms", "rounds", "vs clean"],
            rows,
        )
    )
    # match `repro lint`: non-zero exit when something is actually wrong
    # (a failure nobody repaired), so CI can gate on it
    return 1 if unrecovered else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from .serve.report import serve_timeline
    from .serve.scenarios import scenario_config
    from .serve.simulator import ServeError, serve

    if args.config:
        config = read_document(args.config, ("serve config",)).parse()
    else:
        config = scenario_config(args.scenario)
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon_ms"] = args.horizon
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]

    sched_cache = None
    if args.sched_cache:
        from .sweep import ScheduleCache

        sched_cache = ScheduleCache(args.cache_dir)
    try:
        if args.decisions_out:
            from .obs import capture_decisions

            with capture_decisions() as decisions:
                result = serve(config, sched_cache=sched_cache)
            decisions.write_jsonl(args.decisions_out)
            print(f"wrote {len(decisions)} decision record(s) to {args.decisions_out}")
        else:
            result = serve(config, sched_cache=sched_cache)
    except ServeError as exc:
        print(f"error: {exc}")
        return 2

    if args.trace_out:
        from .obs import save_chrome_trace

        timeline, op_gpu = serve_timeline(list(result.records))
        save_chrome_trace(timeline, op_gpu, args.trace_out, process_name="repro-serve")
        print(f"wrote serving timeline to {args.trace_out}")

    report = result.report
    if args.json:
        doc = report.to_dict()
        if args.requests:
            doc["requests"] = [r.to_dict() for r in result.records]
        print(json.dumps(doc, indent=2))
    else:
        print(report.to_text())
    # failed > 0 means admitted work was lost (retries exhausted / no
    # GPUs left) — the robustness contract this command exists to check
    return 1 if report.failed else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core.evaluator import evaluate_schedule
    from .core.schedule import ScheduleError
    from .costmodel.profile import CostProfile

    graph = read_document(args.graph, ("graph",)).parse()
    schedule = read_document(args.schedule, ("schedule",)).parse()
    if args.gpus is not None and args.gpus != schedule.num_gpus:
        raise DocumentError(
            f"schedule {args.schedule} declares {schedule.num_gpus} GPUs, "
            f"--gpus says {args.gpus}"
        )
    profile = CostProfile(graph=graph, num_gpus=schedule.num_gpus)
    try:
        result = evaluate_schedule(profile, schedule, validate=True)
    except ScheduleError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"OK: {len(schedule.operators())} operators in "
        f"{schedule.num_stages} stages on {len(schedule.used_gpus())} GPU(s); "
        f"predicted latency {result.latency:.3f} ms"
    )
    return 0


#: The kinds ``lint`` checks together; every other document stands alone
#: (no rule combines the subjects they fill with another).
_COMBINED = ("graph", "schedule", "trace")


def _claim(files: dict[str, str], doc: Document) -> None:
    """Record ``doc`` as the one file behind its subject."""
    subject = doc.format.subject
    if subject in files:
        raise DocumentError(
            f"two {doc.format.kind} documents: {files[subject]} and {doc.path}; "
            "pass one"
        )
    files[subject] = doc.path


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from .lint import LintContext, Linter, LintReport, get_rule, rule_catalog
    from .substrate.faults import FaultPlan

    if args.rules:
        catalog = rule_catalog()
        if args.json:
            print(json.dumps({"rules": catalog}, indent=2))
        else:
            for entry in catalog:
                print(
                    f"{entry['id']} [{entry['severity']}] "
                    f"({entry['pack']}): {entry['title']}"
                )
        return 0
    if not args.files and not args.fault:
        print("error: nothing to lint (pass JSON files and/or --fault specs)")
        return 2

    # each lint run pairs a context with the file behind each subject
    combined: dict[str, object] = {}
    files: dict[str, str] = {}
    runs: list[tuple[LintContext, dict[str, str]]] = []
    for path in args.files:
        doc = read_document(path)
        subject = doc.format.subject
        if doc.format.kind not in _COMBINED:
            runs.append((LintContext(**{subject: doc.data}), {subject: path}))
            continue
        _claim(files, doc)
        if subject == "schedule_doc":
            combined[subject], files["schedule"] = doc.data, path
            try:
                combined["schedule"] = doc.parse()
            except DocumentError:
                pass  # the document rules S003-S005 report the details
        else:
            combined[subject] = doc.parse()
    plan = FaultPlan.from_strings(args.fault, seed=args.seed) if args.fault else None
    combined.update(plan=plan, window=args.window, num_gpus=args.gpus, horizon=args.horizon)
    runs.insert(0, (LintContext(**combined), files))  # type: ignore[arg-type]

    # a rule's last required subject is the one it judges (rules list
    # graph, schedule, trace in that order), so it names the file
    linter = Linter()
    diagnostics = []
    for ctx, files in runs:
        for diag in linter.run(ctx):
            path = files.get(get_rule(diag.rule).requires[-1])
            if path is not None:
                where = f"{path}:{diag.location}" if diag.location else path
                diag = replace(diag, location=where)
            diagnostics.append(diag)
    report = LintReport(tuple(diagnostics))
    if args.json:
        doc = report.to_dict()
        doc["rules"] = rule_catalog()
        print(json.dumps(doc, indent=2))
    else:
        print(report.to_text())
    return 0 if not report.errors else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json

    from .sanitize import ExecModel, analyze, timeline_findings

    graph = schedule = None
    traces = []
    files: dict[str, str] = {}
    for path in args.files:
        doc = read_document(path, _COMBINED)
        if doc.format.kind == "trace":
            traces.append(doc.parse())
            continue
        _claim(files, doc)
        if doc.format.kind == "graph":
            graph = doc.parse()
        else:
            schedule = doc.parse()
    if (graph is None) != (schedule is None):
        print("error: sanitize needs the graph and the schedule together")
        return 2
    if graph is None and not args.scenario:
        print(
            "error: nothing to analyze (pass a graph+schedule pair "
            "and/or --scenario NAME)"
        )
        return 2
    if traces and graph is None:
        print("error: trace checks need the graph and schedule they ran under")
        return 2

    report = None
    if graph is not None and schedule is not None:
        model = ExecModel(
            overlap_launch=args.overlap_launch,
            max_streams=args.max_streams,
            data_wait=not args.no_data_wait,
        )
        report = analyze(
            graph, schedule, model, traces=traces, eps=args.eps
        )

    scenario_extra = []
    if args.scenario:
        from dataclasses import replace

        from .sanitize.api import SanitizeReport
        from .serve.report import serve_timeline
        from .serve.scenarios import SCENARIOS, run_scenario

        for name in args.scenario:
            if name not in SCENARIOS:
                print(
                    f"error: unknown scenario {name!r}; choose from "
                    f"{sorted(SCENARIOS)}"
                )
                return 2
            timeline, op_gpu = serve_timeline(run_scenario(name).records)
            for finding in timeline_findings(timeline, op_gpu, eps=args.eps):
                scenario_extra.append(
                    replace(finding, message=f"scenario {name!r}: {finding.message}")
                )
        if report is None:
            report = SanitizeReport(findings=(), model=ExecModel(), stats={})
    assert report is not None
    if scenario_extra:
        report = report.with_findings(scenario_extra)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
        if args.scenario and report.ok:
            names = ", ".join(args.scenario)
            print(f"serve timeline(s) linearizable: {names}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    if args.trace_command == "diff":
        from .obs import diff_traces, render_trace_diff

        trace_a = read_document(args.trace_a, ("trace",)).parse()
        trace_b = read_document(args.trace_b, ("trace",)).parse()
        diff = diff_traces(trace_a, trace_b, eps=args.eps)
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2))
        else:
            print(render_trace_diff(diff, name_a=args.trace_a, name_b=args.trace_b))
        return 0

    trace = read_document(args.trace, ("trace",)).parse()
    op_gpu = read_document(args.schedule, ("schedule",)).parse().assignment()
    missing = sorted(set(trace.op_start) - set(op_gpu))
    if missing:
        raise DocumentError(
            f"schedule {args.schedule} does not place "
            f"{len(missing)} traced operator(s) (e.g. {missing[0]!r}); "
            "is it the schedule this trace was executed under?"
        )

    if args.trace_command == "export":
        from .obs import chrome_trace_document

        doc = chrome_trace_document(trace, op_gpu, process_name=args.process_name)
        payload = json.dumps(doc)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
            print(
                f"wrote {len(doc['traceEvents'])} event(s) to {args.output} "
                "(open in ui.perfetto.dev or chrome://tracing)"
            )
        else:
            print(payload)
        return 0

    from .obs import attribute_latency, render_attribution  # trace report

    report = attribute_latency(trace, op_gpu)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_attribution(report, title=args.trace))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.summary import build_report

    print(build_report(args.results))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "schedule": _cmd_schedule,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "cache": _cmd_cache,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "compare": _cmd_compare,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (DocumentError, FaultError, FlagError, ServeConfigError) as exc:
        print(f"error: {exc}")  # an input the command cannot use
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
