"""MH — the Mapping Heuristic of Lewis & El-Rewini.

Appendix A.3 / Figure 11 of the paper.  A modified list scheduler:

* a zero-cost exit node is (conceptually) inserted, so each task's priority
  is the Gerasoulis/Yang *level* — the communication-inclusive bottom level;
* the free list holds every task whose predecessors are all scheduled,
  ordered by level;
* each task is allocated to the processor — existing or fresh — on which it
  could **start earliest**, accounting for message arrival times;
* following Figure 11, the free list is drained completely before the
  event list releases any successor, so tasks are placed in waves: wave k
  holds the tasks whose longest path from a source has k edges, each wave
  in level order (higher level first, then lower id).  That order is
  computed up front (:func:`~repro.schedulers.listsched.wave_order`), so
  no event list is kept; DESIGN.md section 3 gives the proof.

MH also supports fitting to specific network topologies; on the paper's
fully connected model that feature is a no-op (section A.3), so this
preset does not model topology (see
:class:`~repro.topology.mh_topo.TopologyMHScheduler`).
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register
from .listsched import place_in_order, wave_order


@register
class MHScheduler(Scheduler):
    """Level-priority list scheduling with earliest-start processor choice."""

    name = "MH"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        # The inserted exit node has weight 0 and zero-cost in-edges, so the
        # level it induces equals the plain communication-inclusive b-level.
        level = b_levels_arr(graph, communication=True)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        return place_in_order(pool, wave_order(gi, level), pool.best_processor)
