"""HLFET — Highest Level First with Estimated Times (Adam, Chandy & Dickson).

The classical list-scheduling baseline the comparison literature descends
from.  Priority is the static computation-only level (like HU); placement
is on the processor where the task *starts earliest* (like MH).  HLFET
therefore sits exactly between the paper's two list schedulers and isolates
their difference from the other side: same priority as HU, same placement
rule as MH.
"""

from __future__ import annotations

import heapq

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class HLFETScheduler(Scheduler):
    """Computation-only levels + earliest-start processor choice."""

    name = "HLFET"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        # Hu levels; ties break on the task id (insertion order).
        level = b_levels_arr(graph, communication=False)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        indeg = gi.in_degree
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        free = [(-level[i], i) for i in range(gi.n) if indeg[i] == 0]
        heapq.heapify(free)

        while free:
            _, i = heapq.heappop(free)
            proc, start = pool.best_processor(i, insertion=False)
            pool.place(i, proc, start)
            for j, _ in succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    heapq.heappush(free, (-level[j], j))
        return pool.schedule
