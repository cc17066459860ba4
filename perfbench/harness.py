"""The run protocol shared by every workload.

One run, in order:

1. ``setup_s``: imports plus the workload's set-up (fixtures, daemon or
   worker spawn, warm-up), measured in this process and in two fresh
   set-up-only processes (``--setup-probe``); the median of the three is
   reported.
2. The host yardstick (:func:`calibrate`) at the start and end of the run
   (``host.calib_ms``), and between rounds.
3. The timed phase: whole *rounds* until ``--seconds`` have passed.  A
   workload has ``inputs`` distinct round inputs derived from the seed; the
   run cycles through them so that each is repeated.  Every repeat must
   reproduce the first one's work counts and output digest exactly; a
   mismatch is a failure, not a sample.  Every round counts towards the
   end-to-end metrics, its times scaled to the reference host speed by the
   yardstick read just before and just after it (:func:`at_reference_host`),
   on the vCPU the work runs on where a workload pins it: this host's speed
   moves by up to 1.7x over seconds to minutes, and the scaling takes that
   out while keeping every cost the program pays.
   With ``--trace 1`` each input runs untraced then traced, which gives the
   per-layer budget and the tracing overhead under the same host
   conditions.
4. The workload's post-run checks, then the counts ledger: the first run of
   a (code, workload, seed) in a checkout records each input's counts under
   ``.perfbench/counts/``, where the code is the sha256 of the sources under
   test; every later run of the same code, workload and seed must match
   them.  Runs of other code are never compared.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import checks, stats
from .spans import SpanRecorder

__all__ = [
    "ROOT",
    "Round",
    "Workload",
    "calibrate",
    "child_env",
    "rss_mb",
    "run",
    "per_op",
    "registry_counts",
    "sum_by_key",
    "at_reference_host",
    "layer_metrics",
]

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

#: Fewest repeats of every input a timed phase runs, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Set-ups measured per run (this process plus fresh probe processes).
SETUPS = 3
#: Yardstick passes read before the first round and after every round.
HOST_REPEATS = 4
#: The yardstick's reading (ms) on a calm stretch of the reference host (2
#: vCPUs, Linux 6.18 VM).  Throughput and latency are reported at this speed.
REF_HOST_MS = 25.0


@dataclass
class Round:
    """One round of a workload: its timed work and what it produced."""

    index: int
    ops: int
    seconds: float
    counts: dict[str, int]
    output: str
    problems: list[str] = field(default_factory=list)
    #: Per-op latencies (ms); ``inf`` marks a failed op.
    latencies_ms: list[float] = field(default_factory=list)
    #: Host yardstick (ms) read around the round: mean of the readings just
    #: before and just after it.
    host_ms: float = 0.0
    #: Layer self seconds, calls and bytes of a traced round.
    traced: bool = False
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)
    #: Program counters only a traced round sees (a campaign worker's).
    layer_counts: dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer totals of a traced round, reported per op.
    extra: dict[str, float] = field(default_factory=dict)

    def capture(self, recorder: SpanRecorder | None) -> "Round":
        if recorder is not None:
            self.traced = True
            self.self_s = dict(recorder.self_s)
            self.calls = dict(recorder.calls)
            self.bytes = dict(recorder.bytes)
        return self


class Workload:
    """Base class: one workload's set-up, rounds and checks."""

    name = "?"
    #: Distinct round inputs a run cycles through; input 0 at the default
    #: seed is the one the workload pins.
    inputs = 1
    #: The vCPUs the timed work runs on when it runs outside this process,
    #: where the yardstick between rounds is read; ``None`` reads it
    #: wherever this process runs.
    host_cpus: set[int] | None = None

    def __init__(self, seed: int, workdir: Path, trace: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.trace = trace

    def setup(self) -> None:
        """Fixtures, spawned processes and warm-up, before the first timed op."""

    def round(self, index: int, recorder: SpanRecorder | None) -> Round:
        raise NotImplementedError

    def finish(self, rounds: list[Round]) -> list[str]:
        """Checks run after the timed phase; returns problems."""
        return []

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the work (this one by default)."""
        return rss_mb()

    def layer_extras(self, traced: list[Round], untraced: list[Round]) -> dict[str, float]:
        """Workload-specific per-layer metrics (see :func:`layer_metrics`)."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started and wait for it."""


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def calibrate(repeats: int = 5, cpus: set[int] | None = None) -> float:
    """Host yardstick: mean ms of a fixed pure-Python loop with gc off.

    The loop's work never changes, so a slower reading means slower host
    time, not slower code.  The mean, not the median: each vCPU of the
    reference host flips between a fast and a slow speed (about 27 and 39
    ms here) many times a second, and work slows by the share of time spent
    at each.  With ``cpus`` the loop runs pinned to those vCPUs.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    saved = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        for _ in range(repeats):
            start = perf_counter()
            acc = 0
            table = {}
            for i in range(200_000):
                acc = (acc * 31 + i) % 1_000_003
                table[i & 1023] = acc
            times.append((perf_counter() - start) * 1e3)
    finally:
        os.sched_setaffinity(0, saved)
        if enabled:
            gc.enable()
    return sum(times) / len(times)


def registry_counts(registry) -> dict[str, float]:
    """A metrics registry's counters and timer call counts (``<timer>.calls``)."""
    snap = registry.snapshot()
    counts = dict(snap["counters"])
    counts.update({f"{name}.calls": t["count"] for name, t in snap["timers"].items()})
    return counts


def per_op(rounds: list[Round], value: float) -> float:
    ops = sum(r.ops for r in rounds)
    return value / ops if ops else 0.0


def at_reference_host(rounds: list[Round]) -> tuple[float, int, list[float]]:
    """Seconds, ops and per-op latencies (ms) of ``rounds`` at the reference
    host speed: each round's times are scaled by ``REF_HOST_MS / host_ms``.

    Every round and every op counts; only the host's speed is taken out.
    """
    seconds, ops, latencies = 0.0, 0, []
    for r in rounds:
        scale = REF_HOST_MS / r.host_ms
        seconds += r.seconds * scale
        ops += r.ops
        latencies += [ms * scale for ms in r.latencies_ms]
    return seconds, ops, latencies


def _rate(rounds: list[Round]) -> float:
    seconds, ops, _ = at_reference_host(rounds)
    return ops / seconds if seconds else 0.0


#: (per-layer metric, program counter) pairs reported per op.
_PER_OP_COUNTS = (
    ("simulate.events", "simulator.events"),
    ("kernels.compile.count", "kernels.cache.misses"),
    ("adv.evaluated", "adv.evaluated"),
    ("dsc.edge_zeroings", "dsc.edge_zeroings"),
    ("mcp.insertion_attempts", "mcp.insertion_attempts"),
    ("clans.group_decisions", "clans.group_decisions"),
)


def sum_by_key(dicts) -> dict:
    """Key-wise sum of several ``{name: number}`` dicts."""
    total: dict = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(traced: list[Round], untraced: list[Round]) -> dict[str, float]:
    """Per-op layer metrics common to every workload.

    ``<layer>.ms`` is self milliseconds per op, ``<layer>.calls`` calls per
    op, and a round's ``extra`` totals are reported per op under their own
    names.  ``coverage`` is the named layers' summed self time over the
    traced rounds' wall time.
    """
    from .layers import TIMED_LAYERS

    self_s = sum_by_key(r.self_s for r in traced)
    calls = sum_by_key(r.calls for r in traced)
    nbytes = sum_by_key(r.bytes for r in traced)
    counts = sum_by_key({**r.counts, **r.layer_counts} for r in traced)
    out = {key: per_op(traced, value) for key, value in sum_by_key(r.extra for r in traced).items()}
    for layer in TIMED_LAYERS:
        out[f"{layer}.ms"] = per_op(traced, self_s.get(layer, 0.0) * 1e3)
        out[f"{layer}.calls"] = per_op(traced, calls.get(layer, 0))
    wall = sum(r.seconds for r in traced)
    named = sum(v for k, v in self_s.items() if k in TIMED_LAYERS)
    out["coverage"] = named / wall if wall else 0.0
    out["wire.bytes"] = per_op(traced, nbytes.get("wire.encode", 0) + nbytes.get("wire.decode", 0))
    for name, counter in _PER_OP_COUNTS:
        if counter in counts:
            out[name] = per_op(traced, counts[counter])
    hits = counts.get("kernels.cache.hits", 0.0)
    misses = counts.get("kernels.cache.misses", 0.0)
    if hits + misses:
        out["kernels.cache.hit_ratio"] = hits / (hits + misses)
    if counts.get("batch.batches"):
        out["batch.graphs_per_batch"] = counts["batch.graphs"] / counts["batch.batches"]
    out["generation.graphs"] = out["generation.calls"]
    out["campaign.journal.fsyncs"] = out["campaign.journal.calls"]
    traced_rate, plain_rate = _rate(traced), _rate(untraced)
    out["trace.overhead"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    return out


def code_digest() -> str:
    """sha256 of the code under test: every ``.py`` file of ``src/repro`` and
    of the benchmark (its tests aside), with its path."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(ROOT)
            if rel.parts[:2] == ("perfbench", "tests"):
                continue
            h.update(rel.as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _ledger_problems(
    workload: str, seed: int, firsts: dict[int, Round], code: str
) -> list[str]:
    """Compare each input's counts and output digest with the first run of
    the same (code, workload, seed) in this checkout, or record them."""
    problems = []
    for index, r in sorted(firsts.items()):
        path = STATE / "counts" / code[:16] / f"{workload}-{seed}-{index}.json"
        entry = {"counts": r.counts, "output": r.output}
        if path.is_file():
            known = json.loads(path.read_text())
            problems += checks.count_problems(
                f"input {index} against an earlier run", entry["counts"], known["counts"]
            )
            problems += checks.pin_problems(
                f"input {index} output against an earlier run", r.output, known["output"]
            )
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
    return problems


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process that sets up and exits."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-probe",
    ]
    out = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run(workload_cls: type[Workload], args, t0: float, end_to_end, per_layer) -> int:
    """Run one workload and print its result line; returns the exit code."""
    workdir = STATE / "tmp" / f"{workload_cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(args.seed, workdir, bool(args.trace))
    imports_s = perf_counter() - t0
    try:
        if args.setup_probe:
            start = perf_counter()
            workload.setup()
            print(json.dumps({"setup_s": imports_s + perf_counter() - start}))
            return 0
        probes = [_probe_setup(workload_cls.name, args.seed) for _ in range(SETUPS - 1)]
        calib_start = calibrate()
        start = perf_counter()
        workload.setup()
        setups = [imports_s + perf_counter() - start] + probes
        rounds = _timed_phase(workload, args.seconds, bool(args.trace))
        problems = [p for r in rounds for p in r.problems]
        problems += _repeat_problems(rounds)
        problems += workload.finish(rounds)
        firsts: dict[int, Round] = {}
        for r in rounds:
            firsts.setdefault(r.index, r)
        problems += _ledger_problems(workload_cls.name, args.seed, firsts, code_digest())
        calib_end = calibrate()
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    attempted = sum(r.ops for r in rounds)
    seconds, ops, latencies = at_reference_host(untraced)
    raw_seconds = sum(r.seconds for r in untraced)
    p50 = stats.percentile(latencies, 50)
    p99 = stats.percentile(latencies, 99)
    measured = {
        "setup_s": stats.median(setups),
        "ops_per_s": ops / seconds,
        "peak_rss_mb": peak,
        "p50_ms": p50.value,
    }
    detail = {
        "workload": workload_cls.name,
        "seed": args.seed,
        "host.calib_ms": {"start": calib_start, "end": calib_end},
        "setups_s": setups,
        "rounds": [
            {"input": r.index, "ops": r.ops, "s": r.seconds, "traced": r.traced,
             "host_ms": r.host_ms}
            for r in rounds
        ],
        "raw": {
            "ops_per_s": ops / raw_seconds,
            "p50_ms": stats.percentile([x for r in untraced for x in r.latencies_ms], 50).value,
        },
        "latency_samples": p50.samples,
        "p99": {"ms": p99.value, "beyond": p99.beyond, "supported": p99.supported},
        "counts": {str(i): r.counts for i, r in sorted(firsts.items())},
        "problems": problems[:20],
    }
    if args.trace:
        layer = layer_metrics(traced, untraced)
        layer.update(workload.layer_extras(traced, untraced))
        layer["p99_ms"] = p99.value
        metrics = {
            name: {"value": layer.get(name, 0.0), "unit": unit}
            for name, unit in per_layer
        }
        detail["absent_layers"] = sorted(
            name for name, _ in per_layer if name not in layer
        )
    else:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in end_to_end}
    for problem in problems[:20]:
        print(f"perfbench: {workload_cls.name}: {problem}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": min(attempted, len(problems)),
                "metrics": metrics,
            }
        )
    )
    return 0


def _timed_phase(workload: Workload, seconds: float, trace: bool) -> list[Round]:
    from .layers import install

    rounds: list[Round] = []
    start = perf_counter()
    host = calibrate(HOST_REPEATS, workload.host_cpus)
    passes = 2 if trace else 1
    cycle = workload.inputs * passes
    while True:
        i = len(rounds)
        traced = trace and i % 2 == 1
        index = (i // passes) % workload.inputs
        recorder = patcher = None
        if traced:
            recorder = SpanRecorder()
            patcher = install(recorder)
        try:
            r = workload.round(index, recorder)
        finally:
            if patcher is not None:
                patcher.undo()
        after = calibrate(HOST_REPEATS, workload.host_cpus)
        r.host_ms, host = (host + after) / 2, after
        rounds.append(r)
        done = perf_counter() - start >= seconds
        # A traced run stops after a traced round, so every untraced round
        # has its traced twin.
        paired = len(rounds) % passes == 0
        if done and paired and len(rounds) >= MIN_REPEATS * cycle:
            return rounds


def _repeat_problems(rounds: list[Round]) -> list[str]:
    first: dict[int, Round] = {}
    problems = []
    for r in rounds:
        ref = first.setdefault(r.index, r)
        if ref is r:
            continue
        problems += checks.count_problems(f"input {r.index} repeat", r.counts, ref.counts)
        problems += checks.pin_problems(f"input {r.index} repeat output", r.output, ref.output)
    return problems
