"""ETF — Earliest Task First (Hwang, Chow, Anger & Lee).

An extension beyond the paper's five heuristics (DESIGN.md section 8): at
every step, among all *ready* tasks, schedule the (task, processor) pair
with the globally earliest start time, breaking ties by the static b-level
(communication included), then by the lower id.  ETF is the classic
dynamic-priority counterpart to MH's static-priority list scheduling and
provides a sixth comparator for the testbed.

It is a preset of the greedy loop
(:func:`~repro.schedulers.listsched.place_greedily`): a ready task's
arrival bounds are computed once, when it becomes ready, and each step
reads them through MH's earliest-start processor scan,
:meth:`~repro.core.kernels.IndexedPool.best_processor_from`.
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register
from .listsched import place_greedily


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

        def pick(ready: dict) -> tuple[int, int, float]:
            # globally earliest (start, -level) over ready tasks, then id
            best = None
            for i, bounds in ready.items():
                proc, start = pool.best_processor_from(i, bounds)
                key = (start, -level[i], i)
                if best is None or key < best[0]:
                    best = key, proc
            (start, _, i), proc = best
            return i, proc, start

        return place_greedily(pool, pick)
