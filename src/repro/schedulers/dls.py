"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

An extension comparator contemporary with the paper.  The *dynamic level*
of a ready task t on processor p is

    DL(t, p) = SL(t) - max(data_available(t, p), processor_free(p))

where ``SL`` is the static (computation-only) b-level.  At every step the
(task, processor) pair with the *largest* dynamic level is scheduled, ties
to the earlier start, then the lower processor, then the lower id.  Unlike
ETF (which minimizes the start time and breaks ties by level), DLS trades
the two off directly, which tends to keep critical tasks from being
displaced by merely-early ones.

It is a preset of the greedy loop
(:func:`~repro.schedulers.listsched.place_greedily`), which computes a
ready task's arrival facts once, when it becomes ready; its start on any
candidate is then O(1), and a step costs O(ready x P).
"""

from __future__ import annotations

from math import inf

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register
from .listsched import place_greedily


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

        def pick(ready: dict) -> tuple[int, int, float]:
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
                key = (-(static_level[i] - first), first, on, i)
                if best is None or key < best:
                    best = key
            _, start, proc, i = best
            return i, proc, start

        return place_greedily(pool, pick)
