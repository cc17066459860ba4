"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

An extension comparator contemporary with the paper.  The *dynamic level*
of a ready task t on processor p is

    DL(t, p) = SL(t) - max(data_available(t, p), processor_free(p))

where ``SL`` is the static (computation-only) b-level.  At every step the
(task, processor) pair with the *largest* dynamic level is scheduled.
Unlike ETF (which minimizes the start time and breaks ties by level), DLS
trades the two off directly, which tends to keep critical tasks from being
displaced by merely-early ones.

A ready task's predecessors are placed and never move, so its arrival
facts (:func:`~repro.core.kernels.arrival_bounds`) are computed once, when
it becomes ready; its start on any candidate is then O(1), and a step
costs O(ready x P) instead of re-walking every in-edge per candidate.
"""

from __future__ import annotations

from math import inf

from ..core.kernels import IndexedPool, arrival_bounds, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class DLSScheduler(Scheduler):
    """Greedy maximization of the dynamic level over (task, processor)."""

    name = "DLS"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        static_level = b_levels_arr(graph, communication=False)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        indeg = gi.in_degree
        pred_rows, succ_rows = gi.pred_rows, gi.succ_rows
        finish, proc_of = pool.finish, pool.proc_of
        n_sched_preds = [0] * gi.n
        # ready task -> (local, top_proc, top, second) of its placed inputs
        ready = {
            i: arrival_bounds(pred_rows[i], finish, proc_of)
            for i in range(gi.n)
            if indeg[i] == 0
        }

        while ready:
            # candidate processors: all used, plus one fresh if allowed;
            # DLS only appends, so a processor is free once its last task is
            cands = [pool.avail(p) for p in range(pool.n_processors)]
            if pool.can_grow:
                cands.append(0.0)
            best = None
            for i, (local, top_proc, top, second) in ready.items():
                # i's earliest start over the candidates, ties to the lowest
                # processor.  -dl = start - SL(i) never falls as the start
                # grows, so this is also i's least (-dl, start, proc).  A
                # processor free no earlier than that start cannot beat it.
                on, first = -1, inf
                for proc, free in enumerate(cands):
                    if free >= first:
                        continue
                    start = local.get(proc, 0.0)
                    cross = second if proc == top_proc else top
                    if cross > start:
                        start = cross
                    if free > start:
                        start = free
                    if start < first:
                        on, first = proc, start
                dl = static_level[i] - first
                key = (-dl, first, on, i)
                if best is None or key < best[0]:
                    best = (key, i, on, first)
            assert best is not None
            _, i, proc, start = best
            pool.place(i, proc, start)
            del ready[i]
            for j, _ in succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    ready[j] = arrival_bounds(pred_rows[j], finish, proc_of)
        return pool.schedule
