"""HLFET — Highest Level First with Estimated Times (Adam, Chandy & Dickson).

The classical list-scheduling baseline the comparison literature descends
from.  Priority is the static computation-only level, in exactly HU's order
(:func:`~repro.core.kernels.priority_topo_order_idx` on the Hu levels);
placement is on the processor where the task *starts earliest* (like MH).
HLFET therefore sits exactly between the paper's two list schedulers and
isolates their difference from the other side: same order as HU, same
placement rule as MH.
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
        order = priority_topo_order_idx(gi, b_levels_arr(graph, communication=False))
        pool = IndexedPool(gi, max_processors=self.max_processors)
        return place_in_order(pool, order, pool.best_processor)
