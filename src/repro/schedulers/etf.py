"""ETF — Earliest Task First (Hwang, Chow, Anger & Lee).

An extension beyond the paper's five heuristics (DESIGN.md section 8): at
every step, among all *ready* tasks, schedule the (task, processor) pair
with the globally earliest start time, breaking ties by the static b-level.
ETF is the classic dynamic-priority counterpart to MH's static-priority list
scheduling and provides a sixth comparator for the testbed.
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class ETFScheduler(Scheduler):
    """Greedy global earliest-start-time scheduling."""

    name = "ETF"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        level = b_levels_arr(graph, communication=True)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        indeg = gi.in_degree
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        ready = {i for i in range(gi.n) if indeg[i] == 0}

        while ready:
            # Globally earliest (start, -level) over ready tasks, then id.
            best = None
            for i in ready:
                proc, start = pool.best_processor(i, insertion=False)
                key = (start, -level[i], i)
                if best is None or key < best[0]:
                    best = (key, i, proc, start)
            assert best is not None
            _, i, proc, start = best
            pool.place(i, proc, start)
            ready.remove(i)
            for j, _ in succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    ready.add(j)
        return pool.schedule
