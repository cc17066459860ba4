"""Command-line interface for the scheduling testbed.

Subcommands::

    repro-sched schedule  <graph.json> --heuristic CLANS [--gantt]
    repro-sched classify  <graph.json>
    repro-sched generate  --band 2 --anchor 3 --wmin 20 --wmax 100 -n 40 -o g.json
    repro-sched experiment --graphs-per-cell 4 [--tables 2,3,4] [--figures 1,2]
    repro-sched workload  fft --param 3 -o fft.json
    repro-sched stats     <results.json | trace.jsonl>
    repro-sched bench     batch|adversarial|track [--quick] [--check]
    repro-sched serve     [--port 29267 | --socket PATH] [--workers 2]
    repro-sched submit    <graph.json> --heuristic DSC [--json] [--deadline-ms 250]
    repro-sched top       [--host H --port P | --socket PATH] [--interval 2]
    repro-sched campaign  run|resume|worker|status [--journal PATH] [--local-workers N]

Observability: ``--verbose`` / ``--log-json`` (before the subcommand)
control structured logging; ``experiment``/``report`` accept
``--trace PATH`` to capture a span trace of the whole run (``.jsonl`` for
line format, anything else for Chrome trace-viewer JSON) — a traced run
activates a root trace context, so every span (including those recorded
in suite worker processes) carries one campaign-wide trace id.
``experiment --save`` writes a run manifest next to the results, which
``stats`` inspects.  ``--profile`` (or ``REPRO_PROFILE=1``) on
``experiment``/``serve`` attaches the sampling profiler and writes
flamegraph-ready collapsed stacks next to the run manifest.  ``top``
renders a live RED dashboard from a running daemon's ``stats`` verb, and
``bench track`` maintains the ``BENCH_history.jsonl`` perf-trajectory
ledger (``--check`` fails on regressions).

Fault tolerance (long campaigns): ``experiment`` accepts ``--on-error
raise|skip|record``, ``--timeout SECONDS``, ``--retries N``,
``--checkpoint PATH`` / ``--resume`` and ``--error-budget RATE``; a
degraded run prints a failure report to stderr and exits 3 only when the
failure rate exceeds the budget.

Graphs are exchanged as JSON (``TaskGraph.to_dict`` format).  Also runnable
as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from pathlib import Path

from . import obs
from .core.exceptions import ReproError
from .core.metrics import anchor_out_degree, granularity, node_weight_range
from .core.taskgraph import TaskGraph
from .experiments.figures import ALL_FIGURES
from .experiments.report import full_report
from .experiments.runner import run_suite
from .experiments.tables import ALL_TABLES
from .generation import workloads
from .generation.random_dag import generate_pdg
from .generation.suites import generate_suite
from .schedulers.base import SCHEDULER_REGISTRY, get_scheduler

__all__ = ["main"]


@contextmanager
def _trace_run(path: str | None):
    """Capture a span trace of the ``with`` body when ``--trace`` was given.

    The previous process tracer is restored on exit, so a traced CLI call
    never leaves tracing enabled behind it.
    """
    if not path:
        yield
        return
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise SystemExit(f"cannot write trace to {path}: {parent} is not a directory")
    tracer = obs.Tracer(enabled=True)
    # Root context for the whole run: every span recorded anywhere in the
    # process tree — including suite worker processes and service calls —
    # is tagged with this one trace id.
    ctx = obs.new_context()
    with obs.use_tracer(tracer), obs.use_context(ctx):
        yield
    out = tracer.write(path)
    print(
        f"wrote trace ({len(tracer)} events, trace_id {ctx.trace_id}) to {out}",
        file=sys.stderr,
    )


@contextmanager
def _profile_run(enabled: bool, anchor: str | None, default_name: str):
    """Attach the sampling profiler when ``--profile`` (or REPRO_PROFILE=1)
    asked for it; collapsed stacks land next to ``anchor`` (the saved
    results / manifest path) or under ``default_name`` in the cwd."""
    from .obs.profile import env_enabled, profile_path_for, profile_to

    if not (enabled or env_enabled()):
        yield
        return
    path = profile_path_for(anchor) if anchor else Path(default_name)
    with profile_to(path) as profiler:
        yield
    if profiler is not None:
        print(
            f"wrote profile ({profiler.n_samples} samples) to {path}",
            file=sys.stderr,
        )


def _load_graph(path: str) -> TaskGraph:
    """The graph in the JSON file at ``path``.

    An unreadable file, invalid JSON or a malformed graph prints one line,
    ``repro: cannot read graph PATH: REASON``, and exits 2.
    """
    try:
        with open(path) as fh:
            return TaskGraph.from_dict(json.load(fh))
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except KeyError as exc:
        reason = f"missing key {exc}"
    except (ValueError, TypeError, ReproError) as exc:
        reason = str(exc)
    print(f"repro: cannot read graph {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _save_graph(graph: TaskGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph.to_dict(), fh, indent=1)


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    sched = get_scheduler(args.heuristic)
    if args.improve:
        from .schedulers.improve import LocalSearchImprover

        sched = LocalSearchImprover(sched)
    schedule = sched.schedule(graph)
    schedule.validate(graph)
    if args.json:
        from .core import wire
        from .service.protocol import schedule_result

        print(wire.dumps(schedule_result(sched.name, graph, schedule)))
        return 0
    print(f"heuristic      : {sched.name}")
    print(f"tasks          : {graph.n_tasks}")
    print(f"serial time    : {graph.serial_time():g}")
    print(f"parallel time  : {schedule.makespan:g}")
    print(f"processors     : {schedule.n_processors}")
    print(f"speedup        : {schedule.speedup(graph):.3f}")
    print(f"efficiency     : {schedule.efficiency(graph):.3f}")
    if args.gantt:
        print(schedule.to_gantt())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    lo, hi = node_weight_range(graph)
    print(f"tasks             : {graph.n_tasks}")
    print(f"edges             : {graph.n_edges}")
    print(f"granularity       : {granularity(graph):.4f}")
    print(f"anchor out-degree : {anchor_out_degree(graph)}")
    print(f"node weight range : [{lo:g}, {hi:g}]")
    print(f"serial time       : {graph.serial_time():g}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    graph = generate_pdg(
        rng,
        n_tasks=args.n_tasks,
        band=args.band,
        anchor=args.anchor,
        weight_range=(args.wmin, args.wmax),
    )
    _save_graph(graph, args.output)
    print(
        f"wrote {graph.n_tasks}-task graph (G={granularity(graph):.4f}, "
        f"anchor={anchor_out_degree(graph)}) to {args.output}"
    )
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    factories = {
        "chain": lambda p: workloads.chain(p),
        "fork_join": lambda p: workloads.fork_join(p),
        "fft": lambda p: workloads.fft_graph(p),
        "gauss": lambda p: workloads.gaussian_elimination(p),
        "dnc": lambda p: workloads.divide_and_conquer(p),
        "stencil": lambda p: workloads.stencil_1d(p, p),
        "cholesky": lambda p: workloads.cholesky(p),
        "wavefront": lambda p: workloads.wavefront(p, p),
    }
    graph = factories[args.kind](args.param)
    _save_graph(graph, args.output)
    print(f"wrote {args.kind}({args.param}) with {graph.n_tasks} tasks to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.faults import format_failure_report
    from .experiments.persistence import load_results, save_results

    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    if (
        args.checkpoint
        and not args.resume
        and Path(args.checkpoint).exists()
    ):
        raise SystemExit(
            f"checkpoint {args.checkpoint} already exists; pass --resume to "
            "continue that run or delete the file to start fresh"
        )
    manifest = obs.RunManifest.collect(
        seed=args.seed,
        config={
            "command": "experiment",
            "graphs_per_cell": args.graphs_per_cell,
            "n_tasks_range": [args.nmin, args.nmax],
            "loaded_from": args.load,
            "jobs": args.jobs,
            "on_error": args.on_error,
            "timeout": args.timeout,
            "retries": args.retries,
            "checkpoint": args.checkpoint,
            "adversarial": args.adversarial,
        },
    )
    with _trace_run(args.trace), _profile_run(
        args.profile, args.save, "repro_experiment.profile.txt"
    ):
        if args.load:
            with manifest.phase("load"):
                results = load_results(args.load)
        else:
            with manifest.phase("generate"):
                suite = list(
                    generate_suite(
                        graphs_per_cell=args.graphs_per_cell,
                        seed=args.seed,
                        n_tasks_range=(args.nmin, args.nmax),
                    )
                )
                if args.adversarial:
                    from .generation.suites import adversarial_suite

                    adv = list(adversarial_suite(args.adversarial))
                    suite.extend(adv)
                    print(
                        f"appended {len(adv)} promoted adversarial "
                        f"instance(s) from {args.adversarial}",
                        file=sys.stderr,
                    )
            progress = obs.log_progress if args.progress else None
            with manifest.phase("schedule"):
                results = run_suite(
                    suite,
                    progress=progress,
                    seed=args.seed,
                    jobs=args.jobs,
                    on_error=args.on_error,
                    timeout=args.timeout,
                    retries=args.retries,
                    checkpoint=args.checkpoint,
                )
        if args.save:
            with manifest.phase("save"):
                save_results(results, args.save)
            print(
                f"saved {len(results)} graph results to {args.save}",
                file=sys.stderr,
            )
        tables = (
            _parse_ids(args.tables, ALL_TABLES) if args.tables else sorted(ALL_TABLES)
        )
        figures = _parse_ids(args.figures, ALL_FIGURES) if args.figures else []
        with manifest.phase("report"):
            for tid in tables:
                print(ALL_TABLES[tid](results))
                print()
            for fid in figures:
                print(ALL_FIGURES[fid](results).to_text())
                print()
        if args.save:
            manifest.attach_metrics()
            mpath = manifest.write_for(args.save)
            print(f"wrote run manifest to {mpath}", file=sys.stderr)
    n_failed = getattr(results, "n_failed", 0)
    if n_failed:
        failures = getattr(results, "failures", [])
        if failures:
            print(format_failure_report(failures), file=sys.stderr)
        rate = getattr(results, "failure_rate", 0.0)
        print(
            f"{n_failed} failed evaluation(s), failure rate {rate:.1%} "
            f"(budget {args.error_budget:.1%})",
            file=sys.stderr,
        )
        if rate > args.error_budget:
            return 3
    return 0


def _scheduler_summary(cls: type) -> str:
    """First docstring line of a scheduler class ('' when undocumented)."""
    lines = (cls.__doc__ or "").strip().splitlines()
    return lines[0].strip() if lines else "(no description)"


def _cmd_list(args: argparse.Namespace) -> int:
    from .schedulers.base import SCHEDULER_REGISTRY

    print(f"{'name':8s} {'class':22s} summary")
    for name in sorted(SCHEDULER_REGISTRY):
        cls = SCHEDULER_REGISTRY[name]
        print(f"{name:8s} {cls.__name__:22s} {_scheduler_summary(cls)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _trace_run(args.trace):
        text = full_report(
            graphs_per_cell=args.graphs_per_cell,
            seed=args.seed,
            n_tasks_range=(args.nmin, args.nmax),
            jobs=args.jobs,
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _stats_trace_summary(path: Path) -> int:
    """``repro stats`` on a ``.jsonl`` trace: a tolerant summary.

    Empty files, truncated tails and junk lines are normal for traces (a
    killed run stops writing mid-line), so every problem degrades to a
    clear message and exit 0 — stats inspection must never fail a script.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        print(f"cannot read trace {path}: {exc}")
        return 0
    events = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            skipped += 1  # truncated tail or junk — summarize what parsed
            continue
        if isinstance(obj, dict) and "ph" in obj:
            events.append(obj)
        else:
            skipped += 1
    if not events:
        print(
            f"trace {path} contains no events"
            + (f" ({skipped} unparsable line(s))" if skipped else "")
            + " — nothing to summarize"
        )
        return 0
    spans = [e for e in events if e.get("ph") == "X"]
    by_name: dict[str, int] = {}
    for e in spans:
        by_name[e["name"]] = by_name.get(e["name"], 0) + 1
    trace_ids = {
        e["args"]["trace_id"]
        for e in events
        if isinstance(e.get("args"), dict) and "trace_id" in e["args"]
    }
    print(f"trace          : {path}")
    print(f"events         : {len(events)} ({len(spans)} spans)")
    if skipped:
        print(f"skipped lines  : {skipped} (truncated or unparsable)")
    if trace_ids:
        print(f"trace ids      : {len(trace_ids)}")
    if by_name:
        print()
        width = max(len(n) for n in by_name)
        for name in sorted(by_name, key=by_name.get, reverse=True)[:20]:
            print(f"  {name:<{width}s} {by_name[name]:8d}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Print the manifest + metrics recorded alongside a saved run."""
    results_path = Path(args.results)
    if results_path.suffix == ".jsonl":
        return _stats_trace_summary(results_path)
    manifest_path = obs.manifest_path_for(results_path)
    if not manifest_path.exists():
        print(
            f"no manifest at {manifest_path} — re-run "
            f"`repro experiment --save {results_path}` to produce one"
        )
        return 0
    try:
        manifest = obs.RunManifest.load(manifest_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"manifest at {manifest_path} is unreadable "
            f"({type(exc).__name__}: {exc}) — likely truncated by a killed "
            "run; re-run `repro experiment --save` to regenerate it"
        )
        return 0
    plat = manifest.platform
    print(f"manifest       : {manifest_path}")
    print(f"created        : {manifest.created}")
    print(f"seed           : {manifest.seed}")
    print(f"repro version  : {manifest.version}")
    print(
        f"platform       : python {plat.get('python', '?')} on "
        f"{plat.get('system', '?')}/{plat.get('machine', '?')}"
    )
    for key, value in sorted(manifest.config.items()):
        print(f"config.{key:<15s}: {value}")
    if manifest.phases:
        print()
        print("phase            wall time")
        for name, seconds in manifest.phases.items():
            print(f"{name:16s} {seconds:10.3f}s")

    timers = manifest.metrics.get("timers", {})
    sched_timers = {
        name.removeprefix("scheduler."): t
        for name, t in timers.items()
        if name.startswith("scheduler.")
    }
    if sched_timers:
        print()
        print(f"{'heuristic':10s} {'calls':>7s} {'total':>10s} {'mean':>10s} {'max':>10s}")
        for name in sorted(sched_timers):
            t = sched_timers[name]
            print(
                f"{name:10s} {t['count']:7d} {t['total_s'] * 1e3:9.1f}ms "
                f"{t['mean_s'] * 1e3:9.3f}ms {t['max_s'] * 1e3:9.3f}ms"
            )
    compile_t = timers.get("kernels.compile")
    counters = manifest.metrics.get("counters", {})
    if compile_t:
        hits = counters.get("kernels.cache.hits", 0)
        misses = counters.get("kernels.cache.misses", 0)
        print()
        print(
            f"graph index    : {compile_t['count']} compiles "
            f"({compile_t['total_s'] * 1e3:.1f}ms total), "
            f"{hits:g} cache hits / {misses:g} misses"
        )
    if counters:
        print()
        print("counter totals")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}s} {counters[name]:14g}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run a tracked benchmark; the default action re-pins its baseline."""
    if args.target == "track":
        from .experiments.benchtrack import run_track

        return run_track(
            check=args.check,
            tolerance_scale=args.tolerance,
            label=args.label,
        )

    if args.target == "adversarial":
        return _bench_adversarial(args)

    from .experiments.batchbench import (
        FULL_FLOORS,
        QUICK_FLOORS,
        floor_violations,
        run_benchmark,
    )

    payload = run_benchmark(quick=args.quick, graphs_per_cell=args.graphs_per_cell)
    sections = ("levels", "classify", "end_to_end")
    for name in sections:
        sec = payload[name]
        print(f"{name:<11s}: {sec['speedup']:6.2f}x  identical={sec['identical']}")

    if not args.check:
        out = Path(args.out or f"benchmarks/out/BENCH_{args.target}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"pinned baseline to {out}")

    if not all(payload[name]["identical"] for name in sections):
        print(
            "FAIL: optimized results diverge from the reference paths",
            file=sys.stderr,
        )
        return 1
    if args.check:
        floors = QUICK_FLOORS if args.quick else FULL_FLOORS
        missed = floor_violations(payload, floors)
        if missed:
            for line in missed:
                print(f"FAIL: {line}", file=sys.stderr)
            return 2
    return 0


def _bench_adversarial(args: argparse.Namespace) -> int:
    """``bench adversarial``: fixed-seed hunt quality + throughput."""
    from .experiments.advbench import (
        FULL_FLOORS,
        QUICK_FLOORS,
        floor_violations,
        run_benchmark,
    )

    payload = run_benchmark(quick=args.quick, graphs_per_cell=args.graphs_per_cell)
    adv = payload["adversarial"]
    print(
        f"search     : {adv['steps']} steps x {adv['neighborhood']} candidates "
        f"in {adv['wall_s']:.2f}s ({adv['steps_per_s']:.1f} steps/s)"
    )
    print(
        f"best gap   : {adv['best_gap']:.4f} {adv['objective']} "
        f"({adv['pair'][0]} vs {adv['pair'][1]}; base graph {adv['base_gap']:.4f})"
    )
    print(
        f"testbed max: {adv['baseline_gap']:.4f} over {adv['baseline_graphs']} "
        f"random graphs (beaten={adv['beats_baseline']})"
    )
    print(f"replay     : identical={adv['replay_identical']}")

    if not args.check:
        out = Path(args.out or "benchmarks/out/BENCH_adversarial.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"pinned baseline to {out}")

    if not adv["replay_identical"]:
        print(
            "FAIL: replayed instance does not reproduce its digest",
            file=sys.stderr,
        )
        return 1
    if args.check:
        floors = QUICK_FLOORS if args.quick else FULL_FLOORS
        missed = floor_violations(payload, floors)
        if missed:
            for line in missed:
                print(f"FAIL: {line}", file=sys.stderr)
            return 2
    return 0


def _adversarial_base_spec(args: argparse.Namespace) -> dict:
    """The base-graph spec shared by ``adversarial search`` and the store."""
    return {
        "kind": "pdg",
        "seed": args.seed,
        "n_tasks": args.n_tasks,
        "band": args.band,
        "anchor": args.anchor,
        "weight_range": [args.wmin, args.wmax],
    }


def _cmd_adversarial_search(args: argparse.Namespace) -> int:
    from .adversarial import (
        InstanceRecord,
        build_base_graph,
        hunt,
        make_objective,
        save_instance,
    )
    from .adversarial.objective import baseline_gap
    from .adversarial.store import wire_record
    from .generation.suites import generate_suite

    objective = make_objective(args.objective, args.a, args.b)
    base_spec = _adversarial_base_spec(args)
    base = build_base_graph(base_spec)

    base_max = base_max_id = None
    if args.baseline:
        testbed = list(
            generate_suite(
                graphs_per_cell=args.baseline,
                seed=args.seed,
                n_tasks_range=(20, 40) if args.quick_baseline else (40, 100),
            )
        )
        base_max, base_max_id = baseline_gap(objective, testbed)
        if not args.json:
            print(
                f"random testbed max gap: {base_max:.4f} "
                f"({base_max_id}, {len(testbed)} graphs)"
            )

    result = hunt(
        base,
        objective,
        seed=args.search_seed,
        steps=args.steps,
        neighborhood=args.neighborhood,
        policy=args.policy,
    )
    wire, digest = wire_record(result.best_graph)
    record = InstanceRecord(
        digest=digest,
        graph=wire,
        base=base_spec,
        op_log=result.best_op_log,
        objective=objective.describe(),
        gap=result.best_score,
        base_gap=result.base_score,
        baseline_gap=base_max,
        search={
            "policy": result.policy,
            "seed": result.seed,
            "steps": result.steps,
            "neighborhood": result.neighborhood,
            "accepted": result.accepted,
            "evaluated": result.evaluated,
            "restarts": result.restarts,
            "wall_s": round(result.wall_s, 4),
        },
    )
    path = save_instance(args.store, record)
    if args.json:
        print(
            json.dumps(
                {
                    "digest": digest,
                    "path": str(path),
                    "gap": result.best_score,
                    "base_gap": result.base_score,
                    "baseline_gap": base_max,
                    "steps": result.steps,
                    "steps_per_s": round(result.steps / result.wall_s, 3),
                    "op_log_len": len(result.best_op_log),
                }
            )
        )
    else:
        print(
            f"hunt: {result.steps} steps x {args.neighborhood} candidates "
            f"({result.policy}) in {result.wall_s:.2f}s "
            f"({result.steps / result.wall_s:.1f} steps/s)"
        )
        print(
            f"gap {objective.describe()['kind']} {args.a} vs {args.b}: "
            f"{result.base_score:.4f} -> {result.best_score:.4f} "
            f"({len(result.best_op_log)} ops, {result.accepted} accepted, "
            f"{result.restarts} restarts)"
        )
        print(f"saved instance {digest[:16]} to {path}")
    if args.min_gap is not None and result.best_score < args.min_gap:
        print(
            f"FAIL: best gap {result.best_score:.4f} < --min-gap "
            f"{args.min_gap:.4f}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_adversarial_replay(args: argparse.Namespace) -> int:
    from .adversarial import find_instance, verify_replay
    from .core.exceptions import AdversarialError

    path, record = find_instance(args.store, args.digest)
    try:
        verify_replay(record)
    except AdversarialError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(
        f"replayed {record.digest[:16]} from (seed, {len(record.op_log)}-op "
        f"log): digest identical"
    )
    if args.out:
        _save_graph(TaskGraph.from_dict(record.graph), args.out)
        print(f"wrote graph to {args.out}")
    return 0


def _cmd_adversarial_promote(args: argparse.Namespace) -> int:
    from .adversarial import promote

    record = promote(args.store, args.digest)
    print(
        f"promoted adv-{record.digest[:12]} (gap {record.gap:.4f}, "
        f"{record.objective['a']} vs {record.objective['b']}) — now served "
        "by the 'adversarial' graph class"
    )
    return 0


def _cmd_adversarial_list(args: argparse.Namespace) -> int:
    from .adversarial import list_instances

    records = list_instances(args.store, promoted_only=not args.all)
    if not records:
        print(f"no {'' if args.all else 'promoted '}instances in {args.store}")
        return 0
    print(f"{'digest':16s} {'gap':>8s} {'base':>8s} {'objective':20s} promoted")
    for r in records:
        pair = f"{r.objective['kind']} {r.objective['a']}/{r.objective['b']}"
        print(
            f"{r.digest[:16]:16s} {r.gap:8.4f} {r.base_gap:8.4f} "
            f"{pair:20s} {r.promoted}"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .viz import schedule_to_svg, schedule_to_trace

    graph = _load_graph(args.graph)
    schedule = get_scheduler(args.heuristic).schedule(graph)
    schedule.validate(graph)
    if args.format == "svg":
        payload = schedule_to_svg(schedule)
    else:
        payload = schedule_to_trace(schedule)
    with open(args.output, "w") as fh:
        fh.write(payload)
    print(
        f"wrote {args.format} for {get_scheduler(args.heuristic).name} "
        f"(makespan {schedule.makespan:g}) to {args.output}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.protocol import DEFAULT_PORT
    from .service.server import ReproServer, run_server

    port = DEFAULT_PORT if args.port is None else args.port
    if args.workers > 1:
        # Sharded tier: router + N shared-nothing worker processes, routed
        # by graph digest.  Each worker gets the full per-process knobs, so
        # total queue capacity is workers * queue_size.
        from .service.shard import run_sharded

        with _trace_run(args.trace), _profile_run(
            args.profile, args.manifest, "repro_serve.profile.txt"
        ):
            return run_sharded(
                workers=args.workers,
                host=args.host,
                port=port,
                socket_path=args.socket,
                worker_config={
                    "queue_size": args.queue_size,
                    "batch_max": args.batch_max,
                    "threads": args.threads,
                    "index_cache_size": args.index_cache_size,
                },
                manifest_path=args.manifest,
            )
    server = ReproServer(
        host=args.host,
        port=port,
        socket_path=args.socket,
        queue_size=args.queue_size,
        batch_max=args.batch_max,
        threads=args.threads,
        index_cache_size=args.index_cache_size,
        manifest_path=args.manifest,
    )
    with _trace_run(args.trace), _profile_run(
        args.profile, args.manifest, "repro_serve.profile.txt"
    ):
        return run_server(server)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .core import wire
    from .service.client import ServiceClient, ServiceError
    from .service.protocol import DEFAULT_PORT

    address: tuple[str, int] | str = args.socket or (
        args.host,
        DEFAULT_PORT if args.port is None else args.port,
    )
    graph = _load_graph(args.graph)
    try:
        with ServiceClient(address, timeout=args.timeout) as client:
            result = client.schedule(
                graph,
                args.heuristic,
                improve=args.improve,
                deadline_ms=args.deadline_ms,
            )
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # stdout stays byte-identical to `schedule --json` (a tested
        # contract); client-side pressure goes to stderr as its own JSON
        # line so load-generating scripts can capture both streams.
        print(wire.dumps(result))
        from .service.client import client_counters

        print(json.dumps({"client": client_counters()}), file=sys.stderr)
        return 0
    print(f"heuristic      : {result['heuristic']}")
    print(f"tasks          : {graph.n_tasks}")
    print(f"serial time    : {result['serial_time']:g}")
    print(f"parallel time  : {result['makespan']:g}")
    print(f"processors     : {result['n_processors']}")
    speedup = result["serial_time"] / result["makespan"] if result["makespan"] else 0.0
    print(f"speedup        : {speedup:.3f}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .service.protocol import DEFAULT_PORT
    from .service.top import run_top

    address: tuple[str, int] | str = args.socket or (
        args.host,
        DEFAULT_PORT if args.port is None else args.port,
    )
    return run_top(address, interval=args.interval, once=args.once)


# ----------------------------------------------------------------------
# campaign tier (repro campaign run | resume | worker | status)
# ----------------------------------------------------------------------


def _campaign_address(args: argparse.Namespace) -> "tuple[str, int] | str":
    from .service.protocol import DEFAULT_PORT

    # The campaign coordinator defaults to the service port + 1 so a
    # scheduling daemon and a coordinator can coexist on one host.
    return args.socket or (
        args.host,
        (DEFAULT_PORT + 1) if args.port is None else args.port,
    )


def _parse_cell(text: str) -> tuple[int, int, tuple[int, int]]:
    """argparse type for ``--cell BAND:ANCHOR:WMIN:WMAX``."""
    try:
        band, anchor, wmin, wmax = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BAND:ANCHOR:WMIN:WMAX, got {text!r}"
        ) from None
    return (band, anchor, (wmin, wmax))


def _campaign_spec_from_args(args: argparse.Namespace):
    from .campaign import CampaignSpec

    heuristics = None
    if args.heuristics:
        names = [n.strip().upper() for n in args.heuristics.split(",") if n.strip()]
        for name in names:
            get_scheduler(name)  # fail fast on unknown heuristics
        heuristics = tuple(names)
    return CampaignSpec(
        graphs_per_cell=args.graphs_per_cell,
        seed=args.seed,
        n_tasks_range=(args.nmin, args.nmax),
        cells=tuple(args.cell) if args.cell else None,
        heuristics=heuristics,
        validate=args.validate,
        unit_size=args.unit_size,
        timeout=args.timeout,
        retries=args.retries,
        max_attempts=args.max_attempts,
    )


def _spawn_local_workers(
    n: int, address: "tuple[str, int] | str", jobs: int
) -> list:
    """Start ``n`` `repro campaign worker` subprocesses against ``address``."""
    import subprocess

    argv = [sys.executable, "-m", "repro", "campaign", "worker"]
    if isinstance(address, str):
        argv += ["--socket", address]
    else:
        argv += ["--host", address[0], "--port", str(address[1])]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    return [subprocess.Popen(argv) for _ in range(n)]


def _reap_local_workers(workers: list, *, force: bool) -> None:
    """Collect local worker subprocesses without leaving zombies.

    ``force`` (the interrupt path) terminates everyone up front instead
    of politely waiting — Ctrl-C must not stall 10s per worker.  The
    wait budget is a single shared deadline across all workers, and
    every terminate/kill is followed by a wait so the child is reaped.
    """
    import subprocess
    import time

    if force:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
    deadline = time.monotonic() + (2.0 if force else 10.0)
    for proc in workers:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _campaign_serve(coordinator, args: argparse.Namespace) -> int:
    """Shared tail of ``campaign run`` and ``campaign resume``: serve the
    coordinator until the campaign completes, reap local workers, merge."""
    from .campaign import CampaignServer
    from .experiments.faults import format_failure_report
    from .experiments.persistence import save_results
    from .service.endpoint import bind_failure, format_address

    command = f"repro campaign {args.campaign_command}"
    resume = f"resume with: repro campaign resume --journal {coordinator.journal.path}"
    address = _campaign_address(args)
    server = CampaignServer(coordinator, address)
    try:
        server.start()
    except OSError as exc:
        return bind_failure(exc, command, format_address(address), f"; {resume}")
    workers = _spawn_local_workers(
        args.local_workers, server.bound_address, args.jobs
    )
    interrupted = False
    try:
        # The grace window keeps the socket answering briefly after the
        # last unit merges, so workers mid-retry (e.g. resubmitting a
        # delivery whose ack a coordinator crash swallowed) learn the
        # campaign is done instead of exhausting their patience budget.
        server.serve_until_done(grace=max(3.0, args.lease_ttl))
    except KeyboardInterrupt:
        interrupted = True
    finally:
        _reap_local_workers(workers, force=interrupted)
        try:
            server.stop()
        except RuntimeError as exc:  # a verb still running: merge without it
            print(f"{command}: {exc}", file=sys.stderr)
    if interrupted:
        print(f"interrupted; {resume}", file=sys.stderr)
        return 130
    merged = coordinator.merge()
    status = coordinator.status()
    print(
        f"campaign {coordinator.digest[:12]} done: "
        f"{status['completed']}/{status['n_units']} units merged, "
        f"{status['quarantined']} quarantined, "
        f"{len(merged)} graph results, {merged.n_failed} failures"
    )
    if args.save:
        save_results(merged, args.save)
        print(f"saved merged results to {args.save}")
    if merged.failures:
        print(format_failure_report(merged.failures), file=sys.stderr)
    return 3 if status["quarantined"] else 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignCoordinator

    spec = _campaign_spec_from_args(args)
    try:
        coordinator = CampaignCoordinator.create(
            spec, args.journal, lease_ttl=args.lease_ttl
        )
    except ValueError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    return _campaign_serve(coordinator, args)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import CampaignCoordinator

    try:
        coordinator = CampaignCoordinator.resume(
            args.journal, lease_ttl=args.lease_ttl
        )
    except ValueError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    return _campaign_serve(coordinator, args)


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from .campaign import run_worker
    from .service.client import ServiceError

    try:
        run_worker(
            _campaign_address(args),
            worker_id=args.worker_id,
            jobs=args.jobs,
            patience=args.patience,
            max_units=args.max_units,
        )
    except ServiceError as exc:
        print(f"campaign worker: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(_campaign_address(args), timeout=args.timeout) as client:
            status = client.call("campaign.status")
    except ServiceError as exc:
        print(f"campaign status: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=1))
        return 0
    done = status["completed"] + status["quarantined"]
    print(f"campaign   : {status['campaign'][:12]}")
    print(f"units      : {done}/{status['n_units']} "
          f"({status['quarantined']} quarantined)")
    print(f"graphs     : {status['n_graphs']}")
    print(f"leased     : {status['leased']}")
    print(f"workers    : {status['workers']}")
    print(f"attempts   : {status['attempts']}")
    print(f"done       : {status['done']}")
    return 0


def _jobs_arg(text: str) -> int:
    """argparse type for ``--jobs``: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for the suite run (default 1 = serial; "
        "N>=2 schedules graphs on a process pool with identical results)",
    )


def _parse_ids(spec: str, known: dict) -> list[int]:
    ids = [int(x) for x in spec.split(",") if x.strip()]
    bad = [i for i in ids if i not in known]
    if bad:
        raise SystemExit(f"unknown ids {bad}; known: {sorted(known)}")
    return ids


def _dist_version() -> str:
    """Installed package version; falls back to the source tree's
    ``__version__`` when running uninstalled (``PYTHONPATH=src``)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Multiprocessor scheduling heuristic testbed (ICPP 1994 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_dist_version()}"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log at DEBUG instead of INFO"
    )
    parser.add_argument(
        "--log-json", action="store_true", help="emit JSON-lines structured logs"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("schedule", help="schedule a graph with one heuristic")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument(
        "--heuristic",
        default="CLANS",
        choices=sorted(SCHEDULER_REGISTRY),
        help="scheduler to run",
    )
    p.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p.add_argument(
        "--improve",
        action="store_true",
        help="run local-search improvement on the heuristic's schedule",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON result (same bytes as the service)",
    )
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("classify", help="print a graph's classification metrics")
    p.add_argument("graph", help="graph JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="generate one random PDG")
    p.add_argument("--band", type=int, required=True, help="granularity band 0..4")
    p.add_argument("--anchor", type=int, required=True, help="anchor out-degree")
    p.add_argument("--wmin", type=int, default=20)
    p.add_argument("--wmax", type=int, default=100)
    p.add_argument("-n", "--n-tasks", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("workload", help="emit a structured workload graph")
    p.add_argument(
        "kind",
        choices=["chain", "fork_join", "fft", "gauss", "dnc", "stencil", "cholesky", "wavefront"],
    )
    p.add_argument("--param", type=int, default=4, help="size parameter")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser("list", help="list the registered schedulers")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("report", help="run the suite and write a markdown report")
    p.add_argument("--graphs-per-cell", type=int, default=4)
    p.add_argument("--seed", type=int, default=19940815)
    p.add_argument("--nmin", type=int, default=40)
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    _add_jobs_flag(p)
    p.add_argument(
        "--trace", help="capture a span trace of the run to this path"
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "stats", help="print the manifest and metrics of a saved run"
    )
    p.add_argument(
        "results", help="results JSON written by `experiment --save` (or its manifest)"
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "bench", help="run a tracked benchmark and re-pin its baseline"
    )
    p.add_argument(
        "target",
        choices=["batch", "adversarial", "track"],
        help="which benchmark action to run (batch: pooled SoA sweeps vs "
        "per-graph kernels; adversarial: "
        "fixed-seed hunt quality and throughput; track: record/check the "
        "BENCH_history.jsonl perf ledger)",
    )
    p.add_argument(
        "--quick", action="store_true", help="small sizes for smoke runs"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="batch, adversarial: enforce floors instead of re-pinning the "
        "baseline; track: fail on regression instead of appending an entry",
    )
    p.add_argument("--graphs-per-cell", type=int, default=None)
    p.add_argument(
        "--out",
        default=None,
        help="baseline JSON path to pin "
        "(default: benchmarks/out/BENCH_<target>.json)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=1.0,
        metavar="SCALE",
        help="track: scale all regression tolerances (default %(default)s; "
        "raise on noisy machines)",
    )
    p.add_argument(
        "--label",
        default=None,
        help="track: label for the recorded ledger entry",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export", help="export a schedule as SVG or Chrome trace")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--heuristic", default="CLANS", choices=sorted(SCHEDULER_REGISTRY))
    p.add_argument("--format", default="svg", choices=["svg", "trace"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "serve", help="run the scheduling service daemon (NDJSON over TCP/Unix)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    p.add_argument(
        "--port",
        "--router-port",
        type=int,
        default=None,
        help="TCP port (default 29267; 0 picks a free port); with "
        "--workers N>=2 this is the router's front-door port",
    )
    p.add_argument(
        "--socket", metavar="PATH", help="serve on a Unix socket instead of TCP"
    )
    p.add_argument(
        "--queue-size",
        type=int,
        default=128,
        metavar="N",
        help="admission queue bound; requests beyond it are shed with 503 "
        "(default %(default)s)",
    )
    p.add_argument(
        "--batch-max",
        type=int,
        default=16,
        metavar="N",
        help="max requests drained per dispatch round (default %(default)s)",
    )
    p.add_argument(
        "--workers",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker *processes*: 1 (default) runs the single-process "
        "daemon unchanged; N>=2 runs a router that shards requests across "
        "N shared-nothing workers by graph digest (consistent hashing)",
    )
    p.add_argument(
        "--threads",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker threads per worker process, for the ops not yet known "
        "to be fast: a schedule or classify op that last ran on the same "
        "graph within one GIL switch interval runs on the event loop "
        "instead (default 1)",
    )
    p.add_argument(
        "--index-cache-size",
        type=int,
        default=64,
        metavar="N",
        help="LRU capacity of the decoded-graph/index cache (default %(default)s)",
    )
    p.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a run manifest (config + RED metrics) here on drain",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="attach the sampling profiler; collapsed stacks are written "
        "next to --manifest on drain (also enabled by REPRO_PROFILE=1)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record server-side spans (queue/op/compile, tagged with each "
        "caller's trace id) and write them here on drain",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "top", help="live RED dashboard of a running daemon (polls `stats`)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None, help="TCP port (default 29267)")
    p.add_argument("--socket", metavar="PATH", help="connect to a Unix socket")
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval (default %(default)s)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (for scripts and tests)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("submit", help="schedule a graph via a running daemon")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument(
        "--heuristic", default="CLANS", choices=sorted(SCHEDULER_REGISTRY)
    )
    p.add_argument(
        "--improve",
        action="store_true",
        help="run local-search improvement on the heuristic's schedule",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None, help="TCP port (default 29267)")
    p.add_argument("--socket", metavar="PATH", help="connect to a Unix socket")
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline; late results come back as 504",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON result (same bytes as `schedule --json`)",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "campaign",
        help="distributed resumable suite runs (coordinator + leased workers)",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def _campaign_net_flags(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--host", default="127.0.0.1")
        cp.add_argument(
            "--port",
            type=int,
            default=None,
            help="coordinator TCP port (default: service port + 1 = 29268; "
            "0 picks a free port)",
        )
        cp.add_argument(
            "--socket", metavar="PATH", help="Unix socket instead of TCP"
        )

    def _campaign_serve_flags(cp: argparse.ArgumentParser) -> None:
        _campaign_net_flags(cp)
        cp.add_argument(
            "--journal",
            required=True,
            metavar="PATH",
            help="fsync'd JSONL campaign journal (the resume token)",
        )
        cp.add_argument(
            "--lease-ttl",
            type=float,
            default=15.0,
            metavar="SECONDS",
            help="lease time-to-live; a worker silent this long loses its "
            "unit to rescheduling (default %(default)s)",
        )
        cp.add_argument(
            "--local-workers",
            type=int,
            default=0,
            metavar="N",
            help="also spawn N worker subprocesses against this coordinator "
            "(default 0: workers join separately)",
        )
        _add_jobs_flag(cp)
        cp.add_argument(
            "--save", metavar="PATH", help="write merged results JSON here"
        )

    cp = csub.add_parser("run", help="start a new campaign coordinator")
    cp.add_argument("--graphs-per-cell", type=int, default=35)
    cp.add_argument("--seed", type=int, default=19940815)
    cp.add_argument("--nmin", type=int, default=40)
    cp.add_argument("--nmax", type=int, default=100)
    cp.add_argument(
        "--cell",
        action="append",
        type=_parse_cell,
        metavar="BAND:ANCHOR:WMIN:WMAX",
        help="restrict to this suite cell (repeatable; default: all 60)",
    )
    cp.add_argument(
        "--heuristics",
        metavar="NAMES",
        help="comma-separated heuristic names (default: the paper's five)",
    )
    cp.add_argument(
        "--validate",
        action="store_true",
        help="validate every schedule against the execution model",
    )
    cp.add_argument(
        "--unit-size",
        type=int,
        default=5,
        metavar="N",
        help="graphs per work unit (default %(default)s)",
    )
    cp.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="worker-side wall-clock budget per schedule call",
    )
    cp.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="worker-side retries for non-timeout failures",
    )
    cp.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="lease grants before a unit is quarantined as poison "
        "(default %(default)s)",
    )
    _campaign_serve_flags(cp)
    cp.set_defaults(func=_cmd_campaign_run)

    cp = csub.add_parser(
        "resume", help="rebuild a coordinator from its journal and continue"
    )
    _campaign_serve_flags(cp)
    cp.set_defaults(func=_cmd_campaign_resume)

    cp = csub.add_parser("worker", help="join a campaign and process units")
    _campaign_net_flags(cp)
    cp.add_argument("--worker-id", metavar="ID", help="stable worker name")
    _add_jobs_flag(cp)
    cp.add_argument(
        "--patience",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="how long to ride out an unreachable or fully-leased "
        "coordinator before giving up (default %(default)s)",
    )
    cp.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help="stop after completing N units (default: until done)",
    )
    cp.set_defaults(func=_cmd_campaign_worker)

    cp = csub.add_parser("status", help="one-shot campaign progress snapshot")
    _campaign_net_flags(cp)
    cp.add_argument("--timeout", type=float, default=5.0)
    cp.add_argument("--json", action="store_true", help="emit raw JSON")
    cp.set_defaults(func=_cmd_campaign_status)

    p = sub.add_parser(
        "adversarial",
        help="hunt for, replay, and promote scheduler-separating graphs",
    )
    asub = p.add_subparsers(dest="adversarial_command", required=True)

    def _store_flag(ap: argparse.ArgumentParser) -> None:
        ap.add_argument(
            "--store",
            default="results/adversarial",
            metavar="DIR",
            help="instance store directory (default %(default)s)",
        )

    ap = asub.add_parser(
        "search", help="run a seeded hunt and save the best instance"
    )
    ap.add_argument("--a", default="DSC", help="the favored scheduler")
    ap.add_argument("--b", default="CLANS", help="the scheduler made to lose")
    ap.add_argument(
        "--objective",
        choices=["ratio", "nsl-gap"],
        default="ratio",
        help="gap definition: makespan(B)/makespan(A) ratio or the "
        "critical-path-normalized difference (default %(default)s)",
    )
    ap.add_argument(
        "--policy",
        choices=["anneal", "greedy"],
        default="anneal",
        help="search policy (default %(default)s)",
    )
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument(
        "--neighborhood",
        type=int,
        default=8,
        metavar="K",
        help="candidates scored per step, in one pooled batch pass "
        "(default %(default)s)",
    )
    ap.add_argument(
        "--seed",
        type=int,
        default=19940815,
        help="base-graph generation seed (default %(default)s)",
    )
    ap.add_argument(
        "--search-seed",
        type=int,
        default=42,
        help="perturbation/acceptance seed; (seed, search-seed, params) "
        "fully determines the result (default %(default)s)",
    )
    ap.add_argument("--n-tasks", type=int, default=48, metavar="N")
    ap.add_argument("--band", type=int, default=2, choices=range(5))
    ap.add_argument("--anchor", type=int, default=3)
    ap.add_argument("--wmin", type=int, default=20)
    ap.add_argument("--wmax", type=int, default=100)
    ap.add_argument(
        "--baseline",
        type=int,
        default=0,
        metavar="N",
        help="also score a Table-1 random testbed (N graphs/cell) for the "
        "max-gap yardstick (default 0: skip)",
    )
    ap.add_argument(
        "--quick-baseline",
        action="store_true",
        help="use 20-40 task graphs for the --baseline testbed",
    )
    ap.add_argument(
        "--min-gap",
        type=float,
        default=None,
        metavar="G",
        help="exit 2 unless the found gap reaches G (CI floor)",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON summary")
    _store_flag(ap)
    ap.set_defaults(func=_cmd_adversarial_search)

    ap = asub.add_parser(
        "replay",
        help="rebuild an instance from its (seed, op log) recipe and "
        "verify the digest",
    )
    ap.add_argument("digest", help="instance digest (unique prefix ok)")
    ap.add_argument("--out", metavar="PATH", help="write the graph JSON here")
    _store_flag(ap)
    ap.set_defaults(func=_cmd_adversarial_replay)

    ap = asub.add_parser(
        "promote",
        help="replay-verify an instance and admit it to the 'adversarial' "
        "graph class",
    )
    ap.add_argument("digest", help="instance digest (unique prefix ok)")
    _store_flag(ap)
    ap.set_defaults(func=_cmd_adversarial_promote)

    ap = asub.add_parser("list", help="list stored instances")
    ap.add_argument(
        "--all",
        action="store_true",
        help="include unpromoted instances (default: promoted only)",
    )
    _store_flag(ap)
    ap.set_defaults(func=_cmd_adversarial_list)

    p = sub.add_parser("experiment", help="run the suite and print tables/figures")
    p.add_argument("--graphs-per-cell", type=int, default=4)
    p.add_argument("--seed", type=int, default=19940815)
    p.add_argument("--nmin", type=int, default=40)
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--tables", help="comma-separated table numbers (default: all)")
    p.add_argument("--figures", help="comma-separated figure numbers")
    p.add_argument(
        "--progress",
        action="store_true",
        help="log suite progress (count, elapsed, graphs/s, ETA)",
    )
    _add_jobs_flag(p)
    p.add_argument("--save", help="save raw results JSON to this path")
    p.add_argument("--load", help="skip the run; load results JSON from this path")
    p.add_argument(
        "--trace", help="capture a span trace of the run to this path"
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="attach the sampling profiler; collapsed stacks are written "
        "next to --save (also enabled by REPRO_PROFILE=1)",
    )
    p.add_argument(
        "--on-error",
        choices=["raise", "skip", "record"],
        default="raise",
        help="failure policy: raise = abort on first failure (default); "
        "skip = continue, count failures; record = continue and report "
        "per-failure records",
    )
    p.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per schedule call; one overrun is retried, "
        "a second quarantines the (graph, heuristic) pair",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries (with exponential backoff) for non-timeout failures",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal completed graphs to this JSONL file (fsync'd appends) "
        "so an interrupted run can be resumed",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from an existing --checkpoint journal, skipping "
        "already-completed graphs",
    )
    p.add_argument(
        "--error-budget",
        type=float,
        default=0.0,
        metavar="RATE",
        help="exit non-zero only when the failure rate (failed evaluations "
        "/ attempted) exceeds this fraction (default 0.0)",
    )
    p.add_argument(
        "--adversarial",
        nargs="?",
        const="results/adversarial",
        default=None,
        metavar="DIR",
        help="append the promoted adversarial instances from DIR (default "
        "results/adversarial) to the suite as the 'adversarial' graph class",
    )
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print(
            f"{parser.prog}: error: a subcommand is required "
            "(see --help for the list)",
            file=sys.stderr,
        )
        return 2
    obs.configure(verbose=args.verbose, json_mode=args.log_json)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
