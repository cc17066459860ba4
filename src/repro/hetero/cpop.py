"""CPOP — Critical Path On a Processor (Topcuoglu, Hariri & Wu).

HEFT's companion algorithm from the same paper.  Where HEFT treats all
tasks alike, CPOP pins the *critical path* to the single best processor:

1. upward and downward ranks on mean execution times; a task's priority is
   their sum, and tasks whose priority equals the graph's critical-path
   length form the critical path;
2. the *critical-path processor* is the one minimizing the path's total
   execution time (the fastest, on our uniform-weight machines);
3. scheduling by priority from a free list (a task enters it once its
   predecessors are placed), ties by topological position: critical tasks
   go to the CP processor, everything else to its earliest-finish
   processor (insertion enabled).

It is a preset of the list-scheduling engine on a fixed
:class:`~repro.core.machine.Machine`, like HEFT.  On machines with one
much faster processor CPOP's pinning is a strong prior; on balanced
machines HEFT usually wins — the benchmark shows both.
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, graph_index, priority_topo_order_idx
from ..core.machine import Machine
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..schedulers.base import Scheduler
from ..schedulers.listsched import place_in_order
from .heft import mean_durations, rank_order, upward_ranks

__all__ = ["CPOPScheduler"]


def downward_ranks(graph: TaskGraph, machine: Machine) -> list[float]:
    """Mean-execution t-levels with communication (CPOP's second rank),
    indexed by task id."""
    gi = graph_index(graph)
    mean = mean_durations(gi, machine)
    ranks = [0.0] * gi.n
    for t in gi.topo_list:
        best = 0.0
        for p, c in gi.pred_rows[t]:
            cand = ranks[p] + mean[p] + c
            if cand > best:
                best = cand
        ranks[t] = best
    return ranks


class CPOPScheduler(Scheduler):
    """Critical-path-on-a-processor scheduling for heterogeneous machines."""

    def __init__(self, machine: Machine) -> None:
        self.name = f"CPOP@{machine.require_fixed('CPOP')}"
        self.machine = machine

    def _schedule(self, graph: TaskGraph) -> Schedule:
        machine = self.machine
        pool = IndexedPool(graph_index(graph), machine=machine)
        gi = pool.gi
        up = upward_ranks(graph, machine)
        priority = [u + d for u, d in zip(up, downward_ranks(graph, machine))]
        cp_value = max(up[i] for i in gi.source_ids)
        critical = [abs(p - cp_value) < 1e-9 for p in priority]

        # the CP processor executes the whole critical path fastest; with
        # uniform weights that is simply the fastest processor
        cp_work = sum(w for w, on in zip(gi.weights, critical) if on)
        speeds = machine.speeds or (1.0,) * machine.n_processors
        cp_proc = min(range(len(speeds)), key=lambda p: (cp_work / speeds[p], p))

        def choose(i: int) -> tuple[int, float]:
            if critical[i]:
                return cp_proc, pool.est_insertion(i, cp_proc)
            return pool.earliest_finish(i, True)

        # the free list pops by (-priority, topological position); ranking
        # every task by that key once turns it into the free-list order of
        # priority_topo_order_idx, which pops by (-key, id)
        key = [0] * gi.n
        for r, i in enumerate(rank_order(gi, priority)):
            key[i] = -r
        return place_in_order(pool, priority_topo_order_idx(gi, key), choose)
