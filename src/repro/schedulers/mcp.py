"""MCP — the Modified Critical Path algorithm of Wu & Gajski.

Appendix A.2 / Figure 9 of the paper.  The heuristic:

1. computes each task's ALAP start time ``T_L`` (latest start that keeps the
   communication-inclusive critical path), so critical tasks get the
   smallest ``T_L``;
2. associates with every task the sorted list of the ``T_L`` values of the
   task and all its descendants, and orders tasks by lexicographic
   comparison of those lists — most critical first — taking each next task
   from those whose predecessors are all placed, so the order is
   topological.  (The paper's Figure 9 says "sort in decreasing order and
   schedule head(L)", which would place sinks before their predecessors; we
   follow the published MCP ordering — smallest ALAP first — see
   DESIGN.md.)
3. places each task, in that order, on the processor (existing or fresh)
   giving the earliest start time, with idle-slot insertion
   (:func:`~repro.schedulers.listsched.place_in_order`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ..core.kernels import (
    GraphIndex,
    IndexedPool,
    alap_arr,
    descendant_masks,
    graph_index,
)
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register
from .listsched import place_in_order


@register
class MCPScheduler(Scheduler):
    """ALAP-priority list scheduling with idle-slot insertion."""

    name = "MCP"

    def __init__(
        self, *, insertion: bool = True, max_processors: int | None = None
    ) -> None:
        #: When False, tasks are only appended after a processor's last task.
        #: Exposed for the ablation benchmark (DESIGN.md section 8).
        self.insertion = insertion
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant.
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        order = self._priority_order_ids(graph, gi)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        weights = gi.weights
        n_slot_insertions = 0

        def choose(i: int) -> tuple[int, float]:
            nonlocal n_slot_insertions
            proc, start = pool.best_processor(i, insertion=True)
            if (
                proc < pool.n_processors
                and start + weights[i] <= pool.avail(proc) - 1e-12
            ):
                # placed into an idle gap, not appended after the last task
                n_slot_insertions += 1
            return proc, start

        schedule = place_in_order(
            pool, order, choose if self.insertion else pool.best_processor
        )
        registry = get_registry()
        if self.insertion:
            registry.inc("mcp.insertion_attempts", len(order))
        registry.inc("mcp.slot_insertions", n_slot_insertions)
        return schedule

    @staticmethod
    def _priority_order_ids(graph: TaskGraph, gi: GraphIndex) -> list[int]:
        """Ids ordered most-critical-first by (own ALAP, descendant ALAPs).

        Remaining ties go to the smaller id (insertion order).  The keys
        are popped through a ready set, as
        :func:`~repro.core.kernels.priority_topo_order_idx` pops levels: a
        task becomes ready once all its predecessors are taken, so the
        order is topological by construction.  A sort by key alone is not:
        an ancestor's ALAP time is at most its descendants' but can equal
        it (zero weights between them, or weights too small to survive the
        rounding of a long critical path), and the descendant's shorter
        list of ALAPs then sorts first.  Where the sorted keys are already
        topological, the ready set pops them in exactly that order.
        Descendant sets come from one reverse-topological bitmask sweep.
        """
        alap = alap_arr(graph, communication=True)
        masks = descendant_masks(gi)
        keys: list[tuple[tuple[float, ...], int]] = []
        for i in range(gi.n):
            vals = [alap[i]]
            m = masks[i]
            while m:
                lsb = m & -m
                vals.append(alap[lsb.bit_length() - 1])
                m ^= lsb
            vals.sort()
            keys.append((tuple(vals), i))
        indeg = list(gi.in_degree)
        ready = [keys[i] for i in gi.source_ids]
        heapify(ready)
        rows = gi.succ_rows
        order: list[int] = []
        while ready:
            _, i = heappop(ready)
            order.append(i)
            for j, _ in rows[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heappush(ready, keys[j])
        return order

    @staticmethod
    def priority_order(graph: TaskGraph) -> list[Task]:
        """Tasks in MCP's priority order (see :meth:`_priority_order_ids`)."""
        gi = graph_index(graph)
        tasks = gi.tasks
        return [tasks[i] for i in MCPScheduler._priority_order_ids(graph, gi)]
