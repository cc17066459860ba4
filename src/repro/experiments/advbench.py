"""Adversarial-search benchmark: gap found at a fixed step budget.

Shared by ``benchmarks/bench_adversarial.py`` (the tracked-baseline script
and CI ``adversarial-smoke``) and the ``repro-sched bench adversarial``
subcommand.  One measurement with two checks:

* **search** — a fixed-seed simulated-annealing hunt (DSC vs CLANS,
  makespan-ratio objective) from a fixed base cell, at a fixed step ×
  neighborhood budget.  Reported: ``steps_per_s`` (throughput of the
  batch-fanned scoring loop — the ledger-tracked metric) and ``best_gap``
  (the gap found at the budget — the quality metric).
* **beats the random testbed** — the same objective is evaluated over a
  Table-1 random suite (one graph per cell in quick mode) and the hunt's
  ``best_gap`` must strictly exceed that testbed's max.  This is the
  paper-level claim the subsystem exists to make: random sampling
  understates scheduler gaps.
* **replay** — the discovered instance's ``(base spec, op log)`` recipe is
  replayed from scratch and must reproduce the instance digest exactly.

The whole pipeline is deterministic — seeded ``random.Random`` search over
seeded numpy generation, resolved ops, insertion-ordered encoding — so
``best_gap``, ``baseline_gap`` and the digest are machine-independent and
``--check``'s floors bind everywhere; only ``steps_per_s`` and wall times
vary by machine (the perf ledger tracks those with a wide tolerance).
"""

from __future__ import annotations

import platform
from time import perf_counter

from ..adversarial.objective import baseline_gap, make_objective
from ..adversarial.search import hunt
from ..adversarial.store import InstanceRecord, build_base_graph, verify_replay, wire_record
from ..generation.suites import generate_suite
from ..obs.metrics import MetricsRegistry, use_registry

__all__ = [
    "SEED",
    "QUICK_FLOORS",
    "FULL_FLOORS",
    "run_benchmark",
    "floor_violations",
]

#: The paper's master seed; it seeds the base graph and the search.
SEED = 19940815

#: The hunted pair and objective: how badly CLANS can be made to lose to
#: DSC, as a makespan ratio (the ROADMAP's worked example).
PAIR = ("DSC", "CLANS")
OBJECTIVE = "ratio"
POLICY = "anneal"

#: Fixed base cell the search starts from (band 2 / anchor 3 / weights
#: 20-100 — the middle of the paper's Table 1).
BASE_SPEC = {
    "kind": "pdg",
    "seed": SEED,
    "n_tasks": 48,
    "band": 2,
    "anchor": 3,
    "weight_range": [20, 100],
}

#: Gap floors enforced by ``--check``.  The search is deterministic, so
#: these are pinned just under the fixed-seed result (quick: the CI
#: 200-step budget; full: the pinned-baseline budget) — a miss means the
#: search, ops or schedulers changed behavior, not a slow machine.
QUICK_FLOORS = {"best_gap": 2.0}  # fixed-seed quick run finds 2.344
FULL_FLOORS = {"best_gap": 1.5}  # fixed-seed full run finds 1.719


def floor_violations(payload: dict, floors: dict) -> list[str]:
    """Deterministic quality-floor misses (empty list = all good)."""
    adv = payload["adversarial"]
    missed = []
    if adv["best_gap"] < floors["best_gap"]:
        missed.append(
            f"adversarial best_gap {adv['best_gap']:.4f} "
            f"< floor {floors['best_gap']:.4f}"
        )
    if not adv["beats_baseline"]:
        missed.append(
            f"adversarial best_gap {adv['best_gap']:.4f} does not beat the "
            f"random-testbed max {adv['baseline_gap']:.4f}"
        )
    return missed


def run_benchmark(*, quick: bool = False, graphs_per_cell: int | None = None) -> dict:
    """Run the fixed-seed hunt + baseline sweep; returns the payload."""
    steps = 200
    neighborhood = 4 if quick else 8
    per_cell = graphs_per_cell or (1 if quick else 2)
    n_range = (20, 40) if quick else (40, 100)

    objective = make_objective(OBJECTIVE, *PAIR)
    base = build_base_graph(BASE_SPEC)

    registry = MetricsRegistry()
    with use_registry(registry):
        testbed = list(
            generate_suite(
                graphs_per_cell=per_cell, seed=SEED, n_tasks_range=n_range
            )
        )
        t0 = perf_counter()
        base_max, base_max_id = baseline_gap(objective, testbed)
        baseline_s = perf_counter() - t0

        result = hunt(
            base,
            objective,
            seed=SEED,
            steps=steps,
            neighborhood=neighborhood,
            policy=POLICY,
        )

        wire, digest = wire_record(result.best_graph)
        record = InstanceRecord(
            digest=digest,
            graph=wire,
            base=BASE_SPEC,
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
            },
        )
        try:
            verify_replay(record)
            replay_identical = True
        except Exception:
            replay_identical = False

    counters = registry.counters()
    return {
        "format": "repro-bench-adversarial",
        "version": 1,
        "quick": quick,
        "seed": SEED,
        "platform": {
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "adversarial": {
            "pair": list(PAIR),
            "objective": OBJECTIVE,
            "policy": POLICY,
            "base": dict(BASE_SPEC),
            "steps": result.steps,
            "neighborhood": result.neighborhood,
            "evaluated": result.evaluated,
            "accepted": result.accepted,
            "restarts": result.restarts,
            "wall_s": round(result.wall_s, 4),
            "steps_per_s": round(result.steps / result.wall_s, 3),
            "best_gap": result.best_score,
            "base_gap": result.base_score,
            "baseline_gap": base_max,
            "baseline_graph_id": base_max_id,
            "baseline_graphs": len(testbed),
            "baseline_wall_s": round(baseline_s, 4),
            "beats_baseline": base_max is not None
            and result.best_score > base_max,
            "replay_identical": replay_identical,
            "digest": digest,
            "op_log_len": len(result.best_op_log),
            "obs": {
                "steps": counters.get("adv.steps", 0.0),
                "accepted": counters.get("adv.accepted", 0.0),
                "evaluated": counters.get("adv.evaluated", 0.0),
                "batches": counters.get("batch.batches", 0.0),
            },
        },
    }
