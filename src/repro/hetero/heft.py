"""HEFT and a speed-aware list-scheduling baseline.

HEFT (Topcuoglu, Hariri & Wu, 2002) is the de-facto standard for the
heterogeneous model:

1. **Upward rank**: ``rank(t) = mean_exec(t) + max over successors s of
   (c(t, s) + rank(s))`` — a b-level on averaged execution times;
2. tasks in descending rank order (a topological order);
3. each task placed on the processor minimizing its **earliest finish
   time**, with idle-slot insertion.

:class:`HeteroListScheduler` is the MH-style baseline: same ranks, but
earliest-*start* placement without insertion — isolating how much HEFT's
finish-time objective and insertion buy on skewed machines.

Both are presets of the list-scheduling engine
(:func:`~repro.schedulers.listsched.place_in_order`) on a fixed
:class:`~repro.core.machine.Machine`, whose pool scales every duration by
the processor's speed and every message by the hop count.
"""

from __future__ import annotations

from ..core.kernels import GraphIndex, IndexedPool, graph_index
from ..core.machine import Machine
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..schedulers.base import Scheduler
from ..schedulers.listsched import place_in_order

__all__ = ["HEFTScheduler", "HeteroListScheduler"]


def mean_durations(gi: GraphIndex, machine: Machine) -> list[float]:
    """Each task's execution time averaged over the processors, by id."""
    speeds = machine.speeds
    if speeds is None:
        return gi.weights
    return [sum(w / s for s in speeds) / len(speeds) for w in gi.weights]


def upward_ranks(graph: TaskGraph, machine: Machine) -> list[float]:
    """HEFT's upward ranks (mean-execution b-levels with communication),
    indexed by task id."""
    gi = graph_index(graph)
    mean = mean_durations(gi, machine)
    ranks = [0.0] * gi.n
    for t in reversed(gi.topo_list):
        best = 0.0
        for s, c in gi.succ_rows[t]:
            cand = c + ranks[s]
            if cand > best:
                best = cand
        ranks[t] = mean[t] + best
    return ranks


def rank_order(gi: GraphIndex, rank: list[float]) -> list[int]:
    """Task ids by descending ``rank``, ties by topological position."""
    position = [0] * gi.n
    for k, i in enumerate(gi.topo_list):
        position[i] = k
    return sorted(range(gi.n), key=lambda i: (-rank[i], position[i]))


class HEFTScheduler(Scheduler):
    """Heterogeneous Earliest Finish Time.

    Not part of the homogeneous registry (it needs a machine); construct
    directly: ``HEFTScheduler(Machine([1, 1, 2]))``.
    """

    def __init__(self, machine: Machine, *, insertion: bool = True) -> None:
        self.name = f"HEFT@{machine.require_fixed('HEFT')}"
        self.machine = machine
        self.insertion = insertion

    def _schedule(self, graph: TaskGraph) -> Schedule:
        pool = IndexedPool(graph_index(graph), machine=self.machine)
        order = rank_order(pool.gi, upward_ranks(graph, self.machine))
        insertion = self.insertion
        return place_in_order(pool, order, lambda i: pool.earliest_finish(i, insertion))


class HeteroListScheduler(Scheduler):
    """Speed-aware MH-style baseline: earliest-start, no insertion."""

    def __init__(self, machine: Machine) -> None:
        self.name = f"HMH@{machine.require_fixed('HMH')}"
        self.machine = machine

    def _schedule(self, graph: TaskGraph) -> Schedule:
        pool = IndexedPool(graph_index(graph), machine=self.machine)
        order = rank_order(pool.gi, upward_ranks(graph, self.machine))
        return place_in_order(pool, order, pool.earliest_start)
