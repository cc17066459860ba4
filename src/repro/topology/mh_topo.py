"""Topology-aware MH — the feature the paper's clique testbed left inert.

Appendix A.3: MH "fits the PDG to various network topologies in an attempt
to minimize communication delays … by placing communicating tasks close
together."  This variant implements that behaviour on the
:mod:`repro.topology.networks` models, as a preset of the list-scheduling
engine (:func:`~repro.schedulers.listsched.place_in_order`):

* priority and order are uniform MH's: communication-inclusive levels,
  placed in MH's waves (:func:`~repro.schedulers.listsched.wave_order`);
* each task is allocated to the topology processor where it *starts
  earliest*, with message arrivals scaled by hop distance — so consumers
  gravitate toward their producers' neighbourhoods; ties go to the lower
  processor unless a later one starts more than 1e-12 earlier;
* the processor pool is the fixed network (no growth), every processor
  open from the start.

On a :class:`~repro.topology.networks.FullyConnected` network of p
processors this reduces to ``MHScheduler(max_processors=p)`` (every
distance is one hop), which the tests assert.
"""

from __future__ import annotations

from math import inf

from ..core.kernels import GraphIndex, IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..schedulers.base import Scheduler
from ..schedulers.listsched import place_in_order, wave_order
from .networks import Topology

__all__ = ["TopologyMHScheduler"]


class _NetworkPool(IndexedPool):
    """The pool of a fixed network: every processor is open from the
    start, so any of them may take the next task."""

    __slots__ = ()

    def __init__(self, gi: GraphIndex, n_processors: int) -> None:
        super().__init__(gi, max_processors=n_processors)
        self._intervals = [[] for _ in range(n_processors)]


class TopologyMHScheduler(Scheduler):
    """MH list scheduling onto a fixed processor network.

    Not registered in the global registry (it is parameterized by the
    network); construct directly::

        TopologyMHScheduler(Ring(8)).schedule(graph)
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.name = f"MH@{type(topology).__name__}{topology.n_processors}"

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        distance = self.topology.distance
        pool = _NetworkPool(gi, self.topology.n_processors)
        finish, proc_of = pool.finish, pool.proc_of
        pred_rows = gi.pred_rows

        def choose(i: int) -> tuple[int, float]:
            best_p, best_start = 0, inf
            for p in range(pool.n_processors):
                start = pool.avail(p)
                for j, c in pred_rows[i]:
                    arrival = finish[j] + c * distance(proc_of[j], p)
                    if arrival > start:
                        start = arrival
                if start < best_start - 1e-12:
                    best_p, best_start = p, start
            return best_p, best_start

        order = wave_order(gi, b_levels_arr(graph, communication=True))
        return place_in_order(pool, order, choose)
