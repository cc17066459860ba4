"""Shared execution-timing simulator.

The paper's testbed judges every heuristic under one execution model
(section 2).  The clustering heuristics (DSC, CLANS) produce *clusters* —
processor assignments with a per-processor execution order — and this module
turns such a clustering into a timed :class:`~repro.core.schedule.Schedule`
using the shared model:

    start(t) = max( processor free time,
                    max over predecessors p of
                        finish(p) + c(p, t) * [proc(p) != proc(t)] )

Communication overlaps computation (assumption 4): producers are never
blocked by sends, and multicasts are free.

Two entry points:

* :func:`simulate_ordered` — the caller supplies per-processor task orders.
* :func:`simulate_clustering` — the caller supplies only the assignment;
  orders are derived from a priority (b-level by default), which is the
  convention in the clustering literature.  It also times the assignment
  on any other :class:`~repro.core.machine.Machine`: speed-scaled
  durations, hop-scaled messages, one-port transfers.

Both run on the compiled :class:`~repro.core.kernels.GraphIndex`.  On a
cyclic graph :func:`simulate_ordered` reports a clustering deadlock,
:func:`simulate_clustering` raises :class:`CycleError` when it derives the
order from b-levels and :class:`ScheduleError` when given a ``priority``.
``validate`` (default True) checks that the clustering covers exactly the
graph's task set; internal callers that construct clusterings from the
graph itself pass ``validate=False`` to skip the per-call set rebuilds.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from math import inf

from ..obs.metrics import get_registry
from .exceptions import CycleError, ScheduleError
from .kernels import (
    GraphIndex,
    b_levels_arr,
    graph_index,
    priority_topo_order_idx,
    simulate_ordered_idx,
)
from .machine import Machine, fetch_one_port
from .schedule import Schedule, Transfer, _LazySchedule
from .taskgraph import Task, TaskGraph

__all__ = ["simulate_ordered", "simulate_clustering", "serial_schedule"]


def _validate_clusters(graph: TaskGraph, clusters: Sequence[Sequence[Task]]) -> None:
    """Check that ``clusters`` partitions exactly the graph's task set."""
    seen: dict[Task, int] = {}
    for i, cluster in enumerate(clusters):
        for t in cluster:
            if t in seen:
                raise ScheduleError(f"task {t!r} appears in more than one cluster")
            seen[t] = i
    missing = set(graph.tasks()) - set(seen)
    if missing:
        raise ScheduleError(f"tasks not clustered: {sorted(map(repr, missing))}")
    extra = set(seen) - set(graph.tasks())
    if extra:
        raise ScheduleError(f"unknown tasks clustered: {sorted(map(repr, extra))}")


def _count_run(events: int) -> None:
    registry = get_registry()
    registry.inc("simulator.runs")
    registry.inc("simulator.events", events)


def simulate_ordered(
    graph: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    *,
    validate: bool = True,
) -> Schedule:
    """Time a clustering whose per-processor execution order is fixed.

    ``clusters[i]`` is the ordered task list of processor ``i``.  Every task
    must appear exactly once (checked when ``validate`` is True, the
    default; internal callers that construct the clustering from the graph's
    own task set pass ``validate=False``).  The combined constraints (DAG
    precedence plus cluster order) must be acyclic, otherwise the clustering
    deadlocks and a :class:`ScheduleError` is raised.
    """
    if validate:
        _validate_clusters(graph, clusters)

    try:
        gi = graph_index(graph)
    except CycleError:
        # every task on the cycle waits for another: nothing can start
        raise ScheduleError(
            "clustering deadlocks: cluster orders conflict with precedence"
        ) from None
    index_of = gi.index_of
    clusters_idx = [[index_of[t] for t in cluster] for cluster in clusters]
    schedule, done = simulate_ordered_idx(gi, clusters_idx)
    _count_run(done)
    return schedule


def simulate_clustering(
    graph: TaskGraph,
    assignment: Mapping[Task, int],
    *,
    machine: Machine | None = None,
    priority: Mapping[Task, float] | None = None,
    validate: bool = True,
) -> Schedule:
    """Time a processor assignment, deriving per-processor execution orders.

    Tasks are laid out in a global topological order sorted by descending
    ``priority`` (communication-inclusive b-level when omitted); each
    processor executes its tasks in that order.  Because each cluster order
    is a subsequence of one global topological order, the result never
    deadlocks.  ``validate=False`` skips the assignment-coverage check for
    internal callers that assign from the graph's own task set.

    On the paper's machine (``machine`` None or ``Machine()``) processors
    are renumbered ``0..k-1`` in the order of their ids.  On any other
    machine the assignment's ids are kept (a fixed machine's must lie in
    it) and the tasks are timed in the global order itself.  On a one-port
    machine that order issues the transfers, each task fetching its inputs
    in in-edge order (:func:`~repro.core.machine.fetch_one_port`), and the
    schedule carries them as ``transfers``.
    """
    if validate:
        tasks = set(graph.tasks())
        if set(assignment) != tasks:
            raise ScheduleError("assignment does not cover exactly the graph's tasks")

    if priority is None:
        gi = graph_index(graph)  # CycleError on a cyclic graph
        prio = b_levels_arr(graph, communication=True)
    else:
        gi = _index_or_cycle_error(graph)
        prio = [priority[t] for t in gi.tasks]
    order = priority_topo_order_idx(gi, prio)
    if machine is not None and not machine.is_paper:
        schedule = _simulate_on(gi, order, [assignment[t] for t in gi.tasks], machine)
        _count_run(gi.n)
        return schedule
    procs = sorted(set(assignment.values()))
    remap = {p: i for i, p in enumerate(procs)}
    proc_arr = [0] * gi.n
    index_of = gi.index_of
    for t, p in assignment.items():
        proc_arr[index_of[t]] = remap[p]
    clusters_idx: list[list[int]] = [[] for _ in procs]
    for i in order:
        clusters_idx[proc_arr[i]].append(i)
    schedule, done = simulate_ordered_idx(gi, clusters_idx)
    _count_run(done)
    return schedule


def _simulate_on(
    gi: GraphIndex, order: list[int], proc_of: list[int], machine: Machine
) -> Schedule:
    """Time the tasks of ``order``, task ``i`` on processor ``proc_of[i]``,
    each as soon as its processor and inputs allow on ``machine``."""
    size = machine.n_processors or inf
    for i, p in enumerate(proc_of):
        if not 0 <= p < size:
            raise ScheduleError(
                f"task {gi.tasks[i]!r} assigned to processor {p} outside {machine!r}"
            )
    speeds, hops = machine.speeds, machine.hops
    tasks, weights, pred_rows = gi.tasks, gi.weights, gi.pred_rows
    finish = [0.0] * gi.n
    free: dict[int, float] = {}
    recv: dict[int, float] = {}
    send: defaultdict[int, float] = defaultdict(float)
    rows: list[tuple[Task, int, float, float]] = []
    transfers: list[Transfer] = []
    for i in order:
        p = proc_of[i]
        start = free.get(p, 0.0)
        if machine.one_port:
            start, recv[p], plan = fetch_one_port(
                pred_rows[i], p, start, recv.get(p, 0.0), send, finish, proc_of, hops
            )
            for j, q, begin, end in plan:
                send[q] = end
                transfers.append(Transfer(tasks[j], tasks[i], begin, end, q, p))
        else:
            for j, c in pred_rows[i]:
                q = proc_of[j]
                arrival = finish[j]
                if q != p:
                    arrival += c if hops is None else c * hops[q][p]
                if arrival > start:
                    start = arrival
        f = start + (weights[i] if speeds is None else weights[i] / speeds[p])
        rows.append((tasks[i], p, start, f))
        finish[i] = free[p] = f
    schedule = _LazySchedule(rows)
    schedule.transfers = tuple(transfers)
    return schedule


def serial_schedule(graph: TaskGraph) -> Schedule:
    """All tasks on processor 0 in topological order — the serial baseline."""
    return simulate_ordered(graph, [graph.topological_order()], validate=False)


def _index_or_cycle_error(graph: TaskGraph) -> GraphIndex:
    """The graph's index; a cycle is reported as a :class:`ScheduleError`."""
    try:
        return graph_index(graph)
    except CycleError:
        raise ScheduleError("graph contains a cycle") from None
