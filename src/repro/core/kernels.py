"""Indexed graph kernels: the CSR-compiled hot paths.

Level computation, the simulator timing rule and every list scheduler's
processor pool run here.  This module compiles a
:class:`~repro.core.taskgraph.TaskGraph` once per mutation version into a
:class:`GraphIndex`: dense integer task ids (insertion order, so id ``i``
is the schedulers' deterministic tie-break index), CSR
predecessor/successor adjacency (``array('l')``/``array('d')``, no numpy
dependency), and node/edge cost vectors.  The kernels below then run on flat
lists of floats and ints — cache-friendly integer arithmetic instead of
hash-table churn — and translate back to ``Task``-keyed structures only at
the boundary.

The processor pool (:class:`IndexedPool`) chooses a processor in one
pass over the processors after one pass over the task's in-edges
(:func:`arrival_bounds`), with the full scan's comparison sequence and
1e-12 tie rule.

Floating-point order is part of the output: associativity is never assumed
(``tl[p] + w[p] + c`` is never folded into ``tl[p] + (w[p] + c)``), and
``tests/test_golden.py`` pins the levels, clan trees and every scheduler's
schedules byte for byte.

The kernels require a DAG: compilation topologically orders the ids and
raises :class:`CycleError` otherwise.  The public simulator entry points
translate that into their documented errors.

Observability: each compile is timed into the ``kernels.compile`` timer and
index reuse shows up as ``kernels.cache.hits`` / ``kernels.cache.misses``
counters, so ``repro stats`` reveals whether indexes are being recompiled
(e.g. a workload that mutates graphs between schedule calls).
"""

from __future__ import annotations

from array import array
from bisect import insort
from heapq import heapify, heappop, heappush
from math import inf

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .exceptions import ScheduleError
from .machine import Machine
from .schedule import Schedule, _LazySchedule
from .taskgraph import TaskGraph

__all__ = [
    "GraphIndex",
    "graph_index",
    "discard_index",
    "t_levels_arr",
    "b_levels_arr",
    "alap_arr",
    "critical_path_idx",
    "priority_topo_order_idx",
    "simulate_ordered_idx",
    "descendant_masks",
    "arrival_bounds",
    "IndexedPool",
]

class GraphIndex:
    """A :class:`TaskGraph` compiled to topo-ordered integer ids + CSR arrays.

    Task ``tasks[i]`` has integer id ``i`` in graph insertion order — the
    same index the schedulers use as their deterministic tie-break — and
    ``topo`` lists the ids in the graph's (memoized) topological order.
    ``succ_ptr[i]:succ_ptr[i+1]`` slices ``succ_idx``/``succ_w`` to give
    task ``i``'s successors and edge costs in adjacency insertion order;
    ``pred_*`` mirrors that for predecessors.

    The compact CSR arrays (``array('l')``/``array('d')``) are the canonical
    storage; the ``*_rows`` attributes hold the same adjacency as per-node
    ``[(j, c), ...]`` lists, which CPython iterates measurably faster than
    indexed array reads — the kernels use the rows, interop uses the arrays.

    Instances are immutable snapshots: they are compiled for one graph
    version via :func:`graph_index` and never updated in place.
    """

    __slots__ = (
        "n",
        "m",
        "tasks",
        "index_of",
        "weight",
        "topo",
        "succ_ptr",
        "succ_idx",
        "succ_w",
        "pred_ptr",
        "pred_idx",
        "pred_w",
        "weights",
        "topo_list",
        "succ_rows",
        "pred_rows",
        "in_degree",
        "out_degree",
        "source_ids",
    )

    def __init__(self, graph: TaskGraph) -> None:
        tasks = graph.tasks()
        index_of = {t: i for i, t in enumerate(tasks)}
        n = len(tasks)
        self.n = n
        self.tasks = tasks
        self.index_of = index_of
        weights = [graph.weight(t) for t in tasks]
        self.weights = weights
        self.weight = array("d", weights)

        succ_ptr = array("l", [0] * (n + 1))
        pred_ptr = array("l", [0] * (n + 1))
        succ_idx: list[int] = []
        succ_w: list[float] = []
        pred_idx: list[int] = []
        pred_w: list[float] = []
        succ_rows: list[list[tuple[int, float]]] = []
        pred_rows: list[list[tuple[int, float]]] = []
        for i, t in enumerate(tasks):
            srow = [(index_of[s], c) for s, c in graph.out_edges(t).items()]
            prow = [(index_of[p], c) for p, c in graph.in_edges(t).items()]
            succ_rows.append(srow)
            pred_rows.append(prow)
            for j, c in srow:
                succ_idx.append(j)
                succ_w.append(c)
            for j, c in prow:
                pred_idx.append(j)
                pred_w.append(c)
            succ_ptr[i + 1] = len(succ_idx)
            pred_ptr[i + 1] = len(pred_idx)
        self.m = len(succ_idx)
        self.succ_ptr = succ_ptr
        self.succ_idx = array("l", succ_idx)
        self.succ_w = array("d", succ_w)
        self.pred_ptr = pred_ptr
        self.pred_idx = array("l", pred_idx)
        self.pred_w = array("d", pred_w)
        self.succ_rows = succ_rows
        self.pred_rows = pred_rows
        self.in_degree = [len(r) for r in pred_rows]
        self.out_degree = [len(r) for r in succ_rows]
        # raises CycleError on cyclic input — kernels require a DAG
        self.topo_list = [index_of[t] for t in graph.topological_order()]
        self.topo = array("l", self.topo_list)
        self.source_ids = [i for i in range(n) if not pred_rows[i]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphIndex(n={self.n}, m={self.m})"


_INDEX_KEY = "kernels.graph_index"


def graph_index(graph: TaskGraph) -> GraphIndex:
    """The compiled :class:`GraphIndex` of ``graph``, memoized per version.

    Compilation is keyed to the graph's mutation version through
    :meth:`TaskGraph.cached`, so a suite run that schedules one graph with
    five heuristics compiles once and the other calls are cache hits.
    Raises :class:`CycleError` on cyclic input.
    """
    registry = get_registry()
    hit = True

    def compute() -> GraphIndex:
        nonlocal hit
        hit = False
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("kernels.compile", cat="kernels", n=graph.n_tasks):
                with registry.timer("kernels.compile"):
                    return GraphIndex(graph)
        with registry.timer("kernels.compile"):
            return GraphIndex(graph)

    gi = graph.cached(_INDEX_KEY, compute)
    registry.inc("kernels.cache.hits" if hit else "kernels.cache.misses")
    return gi


def discard_index(graph: TaskGraph) -> None:
    """Drop ``graph``'s memoized :class:`GraphIndex`, if any.

    Eviction hook for size-bounded caches (the service's LRU index cache):
    a long-lived graph object otherwise pins its compiled index for life.
    The next :func:`graph_index` call recompiles and counts a miss.
    """
    graph.uncache(_INDEX_KEY)


# ----------------------------------------------------------------------
# level kernels
#
# Longest-path sweeps over the topological order on flat arrays.  Each is
# memoized on the graph (dropped by any mutation) and returns the shared
# list — callers must treat results as read-only.
# ----------------------------------------------------------------------


def _t_levels(gi: GraphIndex, communication: bool) -> list[float]:
    tl = [0.0] * gi.n
    w = gi.weights
    rows = gi.pred_rows
    if communication:
        for t in gi.topo_list:
            best = 0.0
            for j, c in rows[t]:
                cand = tl[j] + w[j] + c
                if cand > best:
                    best = cand
            tl[t] = best
    else:
        for t in gi.topo_list:
            best = 0.0
            for j, _ in rows[t]:
                cand = tl[j] + w[j] + 0.0
                if cand > best:
                    best = cand
            tl[t] = best
    return tl


def _b_levels(gi: GraphIndex, communication: bool) -> list[float]:
    bl = [0.0] * gi.n
    w = gi.weights
    rows = gi.succ_rows
    if communication:
        for t in reversed(gi.topo_list):
            best = 0.0
            for j, c in rows[t]:
                cand = bl[j] + c
                if cand > best:
                    best = cand
            bl[t] = best + w[t]
    else:
        for t in reversed(gi.topo_list):
            best = 0.0
            for j, _ in rows[t]:
                cand = bl[j] + 0.0
                if cand > best:
                    best = cand
            bl[t] = best + w[t]
    return bl


def t_levels_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """T-levels as a read-only list indexed by task id (memoized per version)."""
    return graph.cached(
        ("kernels.t_levels", communication),
        lambda: _t_levels(graph_index(graph), communication),
    )


def b_levels_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """B-levels as a read-only list indexed by task id (memoized per version)."""
    return graph.cached(
        ("kernels.b_levels", communication),
        lambda: _b_levels(graph_index(graph), communication),
    )


def alap_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """ALAP start times (critical-path deadline) by task id, memoized."""

    def compute() -> list[float]:
        bl = b_levels_arr(graph, communication=communication)
        cp = max(bl, default=0.0)
        return [cp - b for b in bl]

    return graph.cached(("kernels.alap", communication), compute)


def critical_path_idx(graph: TaskGraph, *, communication: bool = True) -> list[int]:
    """One maximal-weight source-to-sink path as task ids.

    Ties break deterministically: start at the first maximal source, follow
    the first maximal successor in adjacency order.
    """
    gi = graph_index(graph)
    if gi.n == 0:
        return []
    bl = b_levels_arr(graph, communication=communication)
    node = -1
    best = -1.0
    for s in gi.source_ids:
        if bl[s] > best:
            node, best = s, bl[s]
    path = [node]
    rows = gi.succ_rows
    while rows[node]:
        best_s, best_val = -1, -1.0
        if communication:
            for j, c in rows[node]:
                val = bl[j] + c
                if val > best_val:
                    best_s, best_val = j, val
        else:
            for j, _ in rows[node]:
                val = bl[j] + 0.0
                if val > best_val:
                    best_s, best_val = j, val
        path.append(best_s)
        node = best_s
    return path


def descendant_masks(gi: GraphIndex) -> list[int]:
    """Strict-descendant sets as int bitmasks, indexed by task id.

    Bit ``j`` of ``masks[i]`` is set iff there is a nonempty path
    ``i -> j``.  One reverse-topological sweep of cheap big-int ors; used by
    the MCP priority kernel in place of per-task hash-set DFS.
    """
    masks = [0] * gi.n
    rows = gi.succ_rows
    for i in reversed(gi.topo_list):
        m = 0
        for j, _ in rows[i]:
            m |= (1 << j) | masks[j]
        masks[i] = m
    return masks


# ----------------------------------------------------------------------
# simulator kernels
# ----------------------------------------------------------------------


def priority_topo_order_idx(gi: GraphIndex, priority: list[float]) -> list[int]:
    """Topological order of task ids, larger ``priority`` first.

    Ties break on the smaller id (= insertion order).
    """
    indeg = list(gi.in_degree)
    heap = [(-priority[i], i) for i in range(gi.n) if indeg[i] == 0]
    heapify(heap)
    order: list[int] = []
    rows = gi.succ_rows
    while heap:
        _, i = heappop(heap)
        order.append(i)
        for j, _ in rows[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(heap, (-priority[j], j))
    if len(order) != gi.n:
        raise ScheduleError("graph contains a cycle")
    return order


def simulate_ordered_idx(
    gi: GraphIndex, clusters: list[list[int]]
) -> tuple[Schedule, int]:
    """The shared timing rule on integer ids; ``clusters`` hold task ids.

    Returns ``(schedule, events)``.  Ready tasks are processed from a LIFO
    stack, which fixes the placement order of the serialized schedule.
    Raises :class:`ScheduleError` when the cluster orders conflict with
    precedence (deadlock).  The caller is responsible for validating that
    ``clusters`` partitions the task set.
    """
    n = gi.n
    proc_of = [-1] * n
    position = [0] * n
    for p, cluster in enumerate(clusters):
        for j, i in enumerate(cluster):
            proc_of[i] = p
            position[i] = j

    indeg = gi.in_degree
    waiting = [indeg[i] + (1 if position[i] > 0 else 0) for i in range(n)]
    ready = [i for i in range(n) if waiting[i] == 0]

    rows: list[tuple[object, int, float, float]] = []
    append_row = rows.append
    tasks = gi.tasks
    weights = gi.weights
    pred_rows = gi.pred_rows
    succ_rows = gi.succ_rows
    finish = [0.0] * n
    proc_free = [0.0] * len(clusters)
    done = 0
    while ready:
        i = ready.pop()
        p = proc_of[i]
        start = proc_free[p]
        for j, c in pred_rows[i]:
            arrival = finish[j] + (c if proc_of[j] != p else 0.0)
            if arrival > start:
                start = arrival
        f = start + weights[i]
        append_row((tasks[i], p, start, f))
        finish[i] = f
        proc_free[p] = f
        done += 1
        for j, _ in succ_rows[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.append(j)
        nxt_pos = position[i] + 1
        cluster = clusters[p]
        if nxt_pos < len(cluster):
            nxt = cluster[nxt_pos]
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                ready.append(nxt)
    if done != n:
        raise ScheduleError(
            "clustering deadlocks: cluster orders conflict with precedence"
        )
    return _LazySchedule(rows), done


# ----------------------------------------------------------------------
# indexed processor pool
# ----------------------------------------------------------------------


def arrival_bounds(
    preds: list[tuple[int, float]], finish: list[float], proc_of: list[int]
) -> tuple[dict[int, float], int, float, float]:
    """Placed predecessors' arrival facts, grouped by processor, in O(indeg).

    ``preds`` is a task's ``pred_rows`` entry; every predecessor must be
    placed.  Returns ``(local, top_proc, top, second)`` where ``local[q]``
    is the max finish time of the predecessors placed on ``q``, and
    ``top``/``second`` are the largest and second-largest of the
    per-processor maxima of ``finish + c`` (``top`` achieved on
    ``top_proc``; maxima taken across *distinct* processors).  The ready
    time on any candidate ``p`` is then O(1):
    ``max(local.get(p, 0), top if p != top_proc else second)`` —
    predecessors co-located with ``p`` pay no communication, all others
    pay theirs in full.  That is a max over the same terms as a walk of the
    in-edges, so the value is bit-identical.
    """
    local: dict[int, float] = {}
    comm: dict[int, float] = {}
    for j, c in preds:
        f = finish[j]
        q = proc_of[j]
        if f > local.get(q, -1.0):
            local[q] = f
        a = f + c
        if a > comm.get(q, -1.0):
            comm[q] = a
    top_proc, top, second = -1, 0.0, 0.0
    for q, a in comm.items():
        if a > top:
            if top_proc != -1:
                second = top
            top_proc, top = q, a
        elif a > second:
            second = a
    return local, top_proc, top, second


class IndexedPool:
    """Processor-pool bookkeeping shared by the list schedulers, on task ids.

    On the paper's machine (``machine`` None, or ``Machine()``) the pool of
    identical, fully connected processors is unbounded, and list schedulers
    grow it on demand.  The pool tracks, per processor, the placed
    ``(start, finish, id)`` intervals, so schedulers can compute earliest
    start times either append-only (after the last task) or with idle-slot
    insertion (MCP).

    ``max_processors`` (None = unbounded, the paper's model) caps the pool:
    once the cap is reached, fresh-processor candidates are no longer
    offered, giving the *direct* bounded variants of the list schedulers
    (as opposed to the fold-after post-pass in
    :mod:`repro.schedulers.mapping`).

    A fixed :class:`~repro.core.machine.Machine` opens all its processors
    at once and never grows.  A task's duration on processor ``p`` is its
    weight over ``p``'s speed, and a message between processors costs its
    edge weight times their hop count.  Port limits are left to the
    one-port scheduler, which plans its transfers itself.

    Predecessor lookups go through the CSR rows and finish times live in a
    flat list.  The ``Schedule`` rows are appended in placement order, so
    translation back to ``Task`` keys is free.
    """

    __slots__ = (
        "gi",
        "max_processors",
        "_rows",
        "proc_of",
        "finish",
        "_intervals",
        "_durations",
        "hops",
    )

    def __init__(
        self,
        gi: GraphIndex,
        *,
        max_processors: int | None = None,
        machine: Machine | None = None,
    ) -> None:
        if max_processors is not None and max_processors < 1:
            raise ValueError(f"max_processors must be >= 1, got {max_processors}")
        self.gi = gi
        self.max_processors = max_processors
        self._rows: list[tuple[object, int, float, float]] = []
        self.proc_of = [-1] * gi.n
        self.finish = [0.0] * gi.n
        self._intervals: list[list[tuple[float, float, int]]] = []
        #: per open processor, its tasks' durations by id
        self._durations: list[list[float]] = []
        self.hops = None
        if machine is not None and machine.n_processors is not None:
            n, speeds, weights = machine.n_processors, machine.speeds, gi.weights
            self.max_processors = n
            self.hops = machine.hops
            self._intervals = [[] for _ in range(n)]
            self._durations = (
                [weights] * n
                if speeds is None
                else [[w / s for w in weights] for s in speeds]
            )

    @property
    def schedule(self) -> Schedule:
        """The placements so far, in placement order (lazily materialized)."""
        return _LazySchedule(self._rows)

    @property
    def n_processors(self) -> int:
        return len(self._intervals)

    @property
    def can_grow(self) -> bool:
        """Whether a fresh processor may still be opened."""
        return (
            self.max_processors is None
            or len(self._intervals) < self.max_processors
        )

    def avail(self, proc: int) -> float:
        """Finish time of the last task on ``proc`` (0 for a fresh one)."""
        if proc >= len(self._intervals) or not self._intervals[proc]:
            return 0.0
        return self._intervals[proc][-1][1]

    def ready_time(self, i: int, proc: int) -> float:
        """Earliest moment all of task ``i``'s inputs are available on ``proc``.

        ``proc == self.n_processors`` denotes a fresh processor (every
        message then crosses processors).
        """
        ready = 0.0
        finish = self.finish
        proc_of = self.proc_of
        hops = self.hops
        if hops is None:
            for j, c in self.gi.pred_rows[i]:
                arrival = finish[j]
                if proc_of[j] != proc:
                    arrival += c
                if arrival > ready:
                    ready = arrival
            return ready
        for j, c in self.gi.pred_rows[i]:
            q = proc_of[j]
            arrival = finish[j] if q == proc else finish[j] + c * hops[q][proc]
            if arrival > ready:
                ready = arrival
        return ready

    def duration(self, i: int, proc: int) -> float:
        """How long task ``i`` runs on ``proc``."""
        if proc < len(self._durations):
            return self._durations[proc][i]
        return self.gi.weights[i]  # a fresh processor of the paper's machine

    def est_append(self, i: int, proc: int) -> float:
        """Earliest start of task ``i`` appended after everything on ``proc``."""
        return max(self.avail(proc), self.ready_time(i, proc))

    def _insertion_start(self, proc: int, ready: float, duration: float) -> float:
        """First gap on ``proc`` fitting ``duration`` at/after ``ready``.

        The gap before an interval fits when the task ends at most 1e-12
        after the interval starts, and starts no later than it: every
        later interval starts no earlier, so a task shorter than 1e-12 is
        never slipped inside one that began before it.
        """
        if proc >= len(self._intervals):
            return ready
        cursor = ready
        for start, finish, _ in self._intervals[proc]:
            if cursor + duration <= start + 1e-12 and cursor <= start:
                return cursor
            if finish > cursor:
                cursor = finish
        return max(cursor, ready)

    def est_insertion(self, i: int, proc: int) -> float:
        """Earliest start of task ``i`` on ``proc`` allowing idle-slot insertion."""
        return self._insertion_start(
            proc, self.ready_time(i, proc), self.duration(i, proc)
        )

    def place(self, i: int, proc: int, start: float) -> None:
        """Record task ``i`` on ``proc`` at ``start`` (growing the pool by at
        most one processor)."""
        if proc > len(self._intervals):
            raise ValueError("processor indices must be allocated contiguously")
        if proc == len(self._intervals):
            self._intervals.append([])
            self._durations.append(self.gi.weights)
        f = start + self._durations[proc][i]
        self._rows.append((self.gi.tasks[i], proc, start, f))
        self.finish[i] = f
        intervals = self._intervals[proc]
        entry = (start, f, i)
        # Append-only is the common case (MH/HU/ETF/DLS and non-insertion
        # MCP never place before the last task); insort only when actually
        # inserting into an idle slot.
        if not intervals or entry >= intervals[-1]:
            intervals.append(entry)
        else:
            insort(intervals, entry)
        self.proc_of[i] = proc

    def best_processor(self, i: int, *, insertion: bool = False) -> tuple[int, float]:
        """Processor (existing or new) minimizing the start time of task ``i``.

        Returns ``(proc, start)``.  Ties prefer existing processors over a
        fresh one, and lower indices first, which keeps results deterministic
        and avoids gratuitous spreading.

        The scan is O(P + indeg): predecessor message arrivals are grouped
        once (:func:`arrival_bounds`), then each candidate's ready time is
        O(1) instead of an O(indeg) re-walk of the in-edges.  (Idle-slot
        insertion additionally scans the candidate's placed intervals.)
        Candidates are visited in index order: the fresh processor (or
        processor 0 of a full bounded pool) is the first incumbent, and a
        later processor replaces it when it starts more than 1e-12 earlier
        or, while the incumbent is the fresh one, within 1e-12 of it.  The
        1e-12 tie rule is not transitive, so these are a full scan's
        comparisons in a full scan's order.
        """
        return self.best_processor_from(
            i,
            arrival_bounds(self.gi.pred_rows[i], self.finish, self.proc_of),
            insertion=insertion,
        )

    def best_processor_from(
        self, i: int, bounds: tuple, *, insertion: bool = False
    ) -> tuple[int, float]:
        """:meth:`best_processor` given task ``i``'s :func:`arrival_bounds`.

        A ready task's predecessors never move, so a caller that ranks the
        same ready task at many steps (ETF) computes its bounds once.
        """
        local, top_proc, top, second = bounds
        intervals = self._intervals
        n = len(intervals)
        duration = self.gi.weights[i]
        if self.can_grow:
            # a fresh processor holds no predecessor: every message pays
            best_proc, best_start = n, top
        else:
            best_proc, best_start = -1, 0.0
        for proc in range(n):
            ready = local.get(proc, 0.0)
            cross = second if proc == top_proc else top
            if cross > ready:
                ready = cross
            if insertion:
                start = self._insertion_start(proc, ready, duration)
            else:
                start = intervals[proc][-1][1]
                if ready > start:
                    start = ready
            if (
                best_proc < 0
                or start < best_start - 1e-12
                or (best_proc == n and abs(start - best_start) <= 1e-12)
            ):
                best_proc, best_start = proc, start
        return best_proc, best_start

    def earliest_start(self, i: int) -> tuple[int, float]:
        """``(proc, start)`` of the processor of a fixed machine on which
        task ``i``, appended, starts earliest: MH's rule.  A later processor
        wins only by starting more than 1e-12 earlier."""
        best_proc, best_start = 0, inf
        for proc in range(len(self._intervals)):
            start = self.est_append(i, proc)
            if start < best_start - 1e-12:
                best_proc, best_start = proc, start
        return best_proc, best_start

    def earliest_finish(self, i: int, insertion: bool) -> tuple[int, float]:
        """``(proc, start)`` of the processor of a fixed machine on which
        task ``i`` finishes earliest, appended or in the first idle slot
        that fits: HEFT's rule.  A later processor wins only by finishing
        more than 1e-12 earlier."""
        best_proc, best_finish, best_start = 0, inf, 0.0
        for proc in range(len(self._intervals)):
            start = self.est_insertion(i, proc) if insertion else self.est_append(i, proc)
            finish = start + self.duration(i, proc)
            if finish < best_finish - 1e-12:
                best_proc, best_finish, best_start = proc, finish, start
        return best_proc, best_start

    def earliest_available_processor(self) -> tuple[int, float]:
        """Processor that is *free* earliest, ignoring message arrivals.

        This is HU's processor-choice rule (appendix A.4): pick by machine
        availability, not by where the task's data lives.  Ties prefer the
        lowest existing index; a fresh processor (avail 0) is used only when
        no existing processor is idle at time 0.

        While the pool may grow, the fresh processor's availability 0 is the
        incumbent and no availability is negative, so the answer is the
        lowest existing processor free by 1e-12, else the fresh one.
        """
        intervals = self._intervals
        if self.can_grow:
            for proc, placed in enumerate(intervals):
                avail = placed[-1][1]
                if avail <= 1e-12:
                    return proc, avail
            return len(intervals), 0.0
        best_proc, best_avail = 0, intervals[0][-1][1]
        for proc, placed in enumerate(intervals):
            avail = placed[-1][1]
            if avail < best_avail - 1e-12:
                best_proc, best_avail = proc, avail
        return best_proc, best_avail
