"""Batch-layer benchmark: pooled numpy sweeps vs the per-graph kernels.

Shared by ``benchmarks/bench_batch.py`` (the tracked-baseline script and CI
``batch-smoke``) and the ``repro-sched bench batch`` subcommand.  Three
measurements, each with a bit-exactness check:

* **levels micro** — t/b/hu/ALAP levels for a 64-graph suite-sized cell:
  the per-graph kernel loop over precompiled
  :class:`~repro.core.kernels.GraphIndex` objects against one
  :class:`~repro.core.batch.GraphBatch` sweep over the pooled CSR.  Pack
  time is measured separately: one pack serves every analysis on the
  batch, and the production consumers amortize it over chunks larger than
  one cell (the ``allin_speedup`` field reports the unamortized ratio
  honestly).
* **classify micro** — section-3 granularity over the same cell: the
  scalar :func:`~repro.core.metrics.granularity` loop against
  :meth:`GraphBatch.granularities`.
* **end to end** — the serial Table-1 suite (five paper heuristics) with
  batching off against batching on; serialized results must be
  **byte-identical**.  Level analysis is a
  small slice of suite wall time (scheduling dominates), so this ratio
  hovers near 1 and its floor is an anti-regression bound, not a win
  target — the win target is the levels floor.

Speedups are ratios of two runs on the same machine in the same process,
so the floors checked by ``--check`` are machine-independent; absolute
times in the baseline JSON are informational only.
"""

from __future__ import annotations

import platform
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from ..core import kernels as _k
from ..core.batch import GraphBatch, use_batch
from ..core.exceptions import GraphError
from ..core.kernels import GraphIndex
from ..core.metrics import _granularity
from ..generation.random_dag import generate_pdg
from ..generation.suites import SuiteGraph, generate_suite
from ..obs.metrics import MetricsRegistry, use_registry
from ..schedulers import get_scheduler
from .persistence import save_results
from .runner import run_suite

__all__ = [
    "SEED",
    "QUICK_FLOORS",
    "FULL_FLOORS",
    "run_benchmark",
    "floor_violations",
]

SEED = 19940815
PAPER_HEURISTICS = ["CLANS", "DSC", "MCP", "MH", "HU"]

#: Minimum speedup ratios enforced by ``--check``.  The full levels floor
#: is the PR's acceptance target (>= 3.5x batched level computation on a
#: 64-graph cell); quick floors leave headroom for noisy CI runners.  The
#: end-to-end floors bound regression (batching must not slow the suite),
#: not a win — see the module docstring.
QUICK_FLOORS = {"levels": 2.5, "end_to_end": 0.90}
FULL_FLOORS = {"levels": 3.5, "end_to_end": 0.95}

#: The "64-graph quick-mode cell": suite-sized graphs, the batch size the
#: acceptance criterion pins.
CELL_GRAPHS = 64


def _cell() -> list:
    """The 64-graph cell both micro benches run on (same in quick mode —
    the acceptance criterion pins the batch size; only reps differ)."""
    rng = np.random.default_rng(SEED)
    return [
        generate_pdg(
            rng,
            n_tasks=int(rng.integers(40, 101)),
            band=int(rng.integers(1, 4)),
            anchor=int(rng.integers(1, 5)),
            weight_range=(20, 200),
        )
        for _ in range(CELL_GRAPHS)
    ]


def _per_graph_levels(indexes: list[GraphIndex]) -> list[tuple]:
    out = []
    for gi in indexes:
        tl = _k._t_levels(gi, True)
        bl = _k._b_levels(gi, True)
        hu = _k._b_levels(gi, False)
        cp = max(bl, default=0.0)
        alap = [cp - b for b in bl]
        out.append((tl, bl, hu, alap))
    return out


def _batch_levels(batch: GraphBatch) -> tuple:
    # Fresh sweep each call: drop the batch's sweep memos first.
    batch._memo.clear()
    tl = batch.t_levels(True)
    bl = batch.b_levels(True)
    hu = batch.b_levels(False)
    alap = batch.alap(True)
    return tl, bl, hu, alap


def _bench_levels(quick: bool) -> dict:
    graphs = _cell()
    indexes = [GraphIndex(g) for g in graphs]
    reps = 30 if quick else 100

    _per_graph_levels(indexes)  # warm allocators
    t0 = perf_counter()
    for _ in range(reps):
        _per_graph_levels(indexes)
    per_graph_s = perf_counter() - t0

    t0 = perf_counter()
    for _ in range(reps):
        GraphBatch(indexes)
    pack_s = perf_counter() - t0

    batch = GraphBatch(indexes)
    _batch_levels(batch)
    t0 = perf_counter()
    for _ in range(reps):
        _batch_levels(batch)
    batch_s = perf_counter() - t0

    ref = _per_graph_levels(indexes)
    tl, bl, hu, alap = _batch_levels(batch)
    identical = True
    for k in range(batch.n_graphs):
        lo, hi = int(batch.node_off[k]), int(batch.node_off[k + 1])
        rtl, rbl, rhu, ralap = ref[k]
        if (
            tl[lo:hi].tolist() != rtl
            or bl[lo:hi].tolist() != rbl
            or hu[lo:hi].tolist() != rhu
            or alap[lo:hi].tolist() != ralap
        ):
            identical = False
            break

    return {
        "n_graphs": batch.n_graphs,
        "n_nodes": batch.n_nodes,
        "n_edges": batch.n_edges,
        "n_levels": batch.n_levels,
        "reps": reps,
        "per_graph_ms": round(per_graph_s / reps * 1e3, 4),
        "batch_ms": round(batch_s / reps * 1e3, 4),
        "pack_ms": round(pack_s / reps * 1e3, 4),
        "speedup": round(per_graph_s / batch_s, 3),
        "allin_speedup": round(per_graph_s / (batch_s + pack_s), 3),
        "identical": identical,
    }


def _bench_classify(quick: bool) -> dict:
    graphs = _cell()
    indexes = [GraphIndex(g) for g in graphs]
    reps = 30 if quick else 100

    # granularity() is memoized per graph; time the raw computation so
    # both arms stay cold across repetitions.
    def scalar_all() -> list:
        out = []
        for g in graphs:
            try:
                out.append(_granularity(g))
            except GraphError:
                out.append(None)
        return out

    scalar_all()
    t0 = perf_counter()
    for _ in range(reps):
        scalar_all()
    scalar_s = perf_counter() - t0

    batch = GraphBatch(indexes)

    def batch_all() -> list:
        batch._memo.pop("gran", None)
        return batch.granularities()

    batch_all()
    t0 = perf_counter()
    for _ in range(reps):
        batch_all()
    batch_s = perf_counter() - t0

    ref = scalar_all()
    got = batch_all()
    identical = len(ref) == len(got) and all(
        (a is None and b is None) or a == b for a, b in zip(ref, got)
    )

    return {
        "n_graphs": len(graphs),
        "reps": reps,
        "per_graph_ms": round(scalar_s / reps * 1e3, 4),
        "batch_ms": round(batch_s / reps * 1e3, 4),
        "speedup": round(scalar_s / batch_s, 3),
        "identical": identical,
    }


def _copy_suite(suite: list) -> list:
    return [
        SuiteGraph(cell=sg.cell, index=sg.index, graph=sg.graph.copy())
        for sg in suite
    ]


def _bench_end_to_end(quick: bool, graphs_per_cell: int | None) -> dict:
    per_cell = graphs_per_cell or (2 if quick else 4)
    n_range = (20, 40) if quick else (40, 100)
    suite = list(
        generate_suite(graphs_per_cell=per_cell, seed=SEED, n_tasks_range=n_range)
    )
    scheds = [get_scheduler(name) for name in PAPER_HEURISTICS]

    # Both arms run over fresh graph copies (the two arms share memo keys,
    # so reusing objects would hand arm 2 arm 1's caches).
    with use_registry(MetricsRegistry()), use_batch(True):
        run_suite(_copy_suite(suite[: min(6, len(suite))]), scheds, seed=SEED)

    with use_registry(MetricsRegistry()), use_batch(False):
        arm = _copy_suite(suite)
        t0 = perf_counter()
        off_results = run_suite(arm, scheds, seed=SEED)
        off_s = perf_counter() - t0

    on_registry = MetricsRegistry()
    with use_registry(on_registry), use_batch(True):
        arm = _copy_suite(suite)
        t0 = perf_counter()
        on_results = run_suite(arm, scheds, seed=SEED)
        on_s = perf_counter() - t0

    identical = _serialized(off_results) == _serialized(on_results)
    counters = on_registry.counters()

    return {
        "graphs_per_cell": per_cell,
        "n_graphs": len(suite),
        "n_tasks_range": list(n_range),
        "heuristics": PAPER_HEURISTICS,
        "unbatched_wall_s": round(off_s, 4),
        "batched_wall_s": round(on_s, 4),
        "speedup": round(off_s / on_s, 3),
        "identical": identical,
        "obs": {
            "batches": counters.get("batch.batches", 0.0),
            "batched_graphs": counters.get("batch.graphs", 0.0),
            "already_primed": counters.get("batch.already_primed", 0.0),
        },
    }


def run_benchmark(*, quick: bool = False, graphs_per_cell: int | None = None) -> dict:
    """Run all three measurements; returns the baseline JSON payload."""
    levels = _bench_levels(quick)
    classify = _bench_classify(quick)
    end_to_end = _bench_end_to_end(quick, graphs_per_cell)
    return {
        "format": "repro-bench-batch",
        "version": 1,
        "quick": quick,
        "seed": SEED,
        "platform": {
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "levels": levels,
        "classify": classify,
        "end_to_end": end_to_end,
    }


def _serialized(results) -> bytes:
    """The bytes :func:`save_results` writes for ``results``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        save_results(results, path)
        return path.read_bytes()


def floor_violations(payload: dict, floors: dict[str, float]) -> list[str]:
    """Speedup floors missed by ``payload`` (empty list means all met)."""
    out = []
    for section, floor in floors.items():
        speedup = payload[section]["speedup"]
        if speedup < floor:
            out.append(f"{section}: {speedup:.2f}x < required {floor:.1f}x")
    return out
