"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

An extension comparator contemporary with the paper.  The *dynamic level*
of a ready task t on processor p is

    DL(t, p) = SL(t) - max(data_available(t, p), processor_free(p))

where ``SL`` is the static (computation-only) b-level.  At every step the
(task, processor) pair with the *largest* dynamic level is scheduled.
Unlike ETF (which minimizes the start time and breaks ties by level), DLS
trades the two off directly, which tends to keep critical tasks from being
displaced by merely-early ones.
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
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
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        ready = {i for i in range(gi.n) if indeg[i] == 0}

        while ready:
            # candidate processors: all used, plus one fresh if allowed
            n_cand = pool.n_processors + (1 if pool.can_grow else 0)
            best = None
            for i in ready:
                for proc in range(n_cand):
                    start = pool.est_append(i, proc)
                    dl = static_level[i] - start
                    key = (-dl, start, proc, i)
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
