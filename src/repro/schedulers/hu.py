"""HU — Lewis & El-Rewini's communication-cost variant of Hu's algorithm.

Appendix A.4 / Figure 13 of the paper.  Tasks are prioritized by the
classical Hu level (the communication-*free* bottom level) and released in a
free list once all predecessors are scheduled; the free list's order is
:func:`~repro.core.kernels.priority_topo_order_idx` on those levels, the
order HLFET shares.  Each task is assigned to the processor that is **free
earliest** — the choice ignores where the task's input data lives, although
the task's actual start time still waits for its messages to arrive.

With an unbounded processor pool that rule spreads tasks maximally: a fresh
processor is free at time 0, so nearly every task lands on its own processor
and pays full communication on every edge.  This is exactly the behaviour the
paper observes — HU retards *all* low-granularity graphs (Table 2), has the
worst relative parallel time everywhere (Tables 3/7/11) and near-zero
efficiency (Tables 5/9).
"""

from __future__ import annotations

from ..core.kernels import (
    IndexedPool,
    b_levels_arr,
    graph_index,
    priority_topo_order_idx,
)
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register
from .listsched import place_in_order


@register
class HuScheduler(Scheduler):
    """Hu levels + earliest-available-processor assignment."""

    name = "HU"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        # Hu levels; ties break on the task id (insertion order).
        order = priority_topo_order_idx(gi, b_levels_arr(graph, communication=False))
        pool = IndexedPool(gi, max_processors=self.max_processors)

        def choose(i: int) -> tuple[int, float]:
            proc, _avail = pool.earliest_available_processor()
            return proc, pool.est_append(i, proc)

        return place_in_order(pool, order, choose)
