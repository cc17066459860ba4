"""The list-scheduling engine against the loops it replaced.

Every list heuristic is a preset of :mod:`repro.schedulers.listsched`: a
task order plus a placement rule.  The references below are the
per-heuristic loops the presets replaced, kept here as test-only oracles:

* MCP's loop over its priority list, counting idle-slot insertions, with
  the list built by its definition: the ready task with the smallest
  (own ALAP, sorted descendant ALAPs, id) key next, found by a scan;
* MH's free heap drained before its event heap releases successors;
* HU's and HLFET's free heaps with an in-degree countdown;
* ETF's scan of the ready set, one ``best_processor`` call per ready task
  per step;
* the topology MH's task-keyed free and event heaps;
* MH1P's task-keyed free heap and per-candidate one-port plan;
* HEFT's, HMH's and CPOP's task-keyed loops over a per-processor interval
  state with speed-scaled durations (CPOP's with its own free heap).

DLS's reference is ``_reference_dls`` in ``tests/test_dls_hlfet.py`` (DLS
by its definition, one in-edge walk per candidate).  Each must give
byte-equal ``Schedule.to_dict()`` output, equal MH1P transfers and equal
``mcp.*`` counter deltas on the default 60-graph Table-1 suite, the
advbench hunt corpus and hypothesis tie graphs; every machine preset's
schedule must also pass ``Schedule.validate`` on its machine.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import inf

import pytest
from hypothesis import given, settings

from repro.core.analysis import b_levels_view
from repro.core.kernels import IndexedPool, alap_arr, b_levels_arr, graph_index
from repro.core.machine import Machine
from repro.core.schedule import Schedule
from repro.core.wire import dumps
from repro.hetero import CPOPScheduler, HEFTScheduler, HeteroListScheduler
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.schedulers import (
    DLSScheduler,
    ETFScheduler,
    HLFETScheduler,
    HuScheduler,
    MCPScheduler,
    MHScheduler,
)
from repro.schedulers.listsched import wave_order
from repro.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    PortAwareScheduler,
    Ring,
    Star,
    TopologyMHScheduler,
)

from conftest import hunt_graphs, tie_graphs
from test_dls_hlfet import _reference_dls
from test_golden import _suite_graphs


# ----------------------------------------------------------------------
# references: the per-heuristic loops
# ----------------------------------------------------------------------
def _reference_mcp_order(graph, gi):
    """MCP's order by its definition: of the tasks whose predecessors are
    all taken, the one with the smallest (own ALAP, sorted descendant
    ALAPs, id) key, found by a scan of the ready set."""
    alap = alap_arr(graph, communication=True)
    keys = []
    for i, t in enumerate(gi.tasks):
        vals = [alap[i]] + [alap[gi.index_of[d]] for d in graph.descendants(t)]
        keys.append((tuple(sorted(vals)), i))
    waiting = list(gi.in_degree)
    ready = {i for i in range(gi.n) if waiting[i] == 0}
    order = []
    while ready:
        i = min(ready, key=keys.__getitem__)
        ready.remove(i)
        order.append(i)
        for j, _ in gi.succ_rows[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.add(j)
    return order


def _reference_mcp(graph, insertion, max_processors):
    gi = graph_index(graph)
    order = _reference_mcp_order(graph, gi)
    pool = IndexedPool(gi, max_processors=max_processors)
    weights = gi.weights
    n_slot_insertions = 0
    for i in order:
        proc, start = pool.best_processor(i, insertion=insertion)
        if (
            insertion
            and proc < pool.n_processors
            and start + weights[i] <= pool.avail(proc) - 1e-12
        ):
            n_slot_insertions += 1
        pool.place(i, proc, start)
    registry = get_registry()
    if insertion:
        registry.inc("mcp.insertion_attempts", len(order))
    registry.inc("mcp.slot_insertions", n_slot_insertions)
    return pool.schedule


def _reference_mh(graph, max_processors, placed=None):
    """MH's free and event heaps; ``placed`` collects the placement order."""
    gi = graph_index(graph)
    level = b_levels_arr(graph, communication=True)
    pool = IndexedPool(gi, max_processors=max_processors)
    indeg = gi.in_degree
    n_sched_preds = [0] * gi.n
    free = [(-level[i], i) for i in range(gi.n) if indeg[i] == 0]
    heapq.heapify(free)
    events: list[tuple[float, int]] = []
    n_done = 0
    while n_done < gi.n:
        while free:
            _, i = heapq.heappop(free)
            proc, start = pool.best_processor(i, insertion=False)
            pool.place(i, proc, start)
            if placed is not None:
                placed.append(i)
            heapq.heappush(events, (pool.finish[i], i))
            n_done += 1
        while events:
            _, i = heapq.heappop(events)
            for j, _ in gi.succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    heapq.heappush(free, (-level[j], j))
    return pool.schedule


def _reference_hu_levels(graph, max_processors, earliest_start):
    """HU's loop (``earliest_start`` False) or HLFET's (True)."""
    gi = graph_index(graph)
    level = b_levels_arr(graph, communication=False)
    pool = IndexedPool(gi, max_processors=max_processors)
    indeg = gi.in_degree
    n_sched_preds = [0] * gi.n
    free = [(-level[i], i) for i in range(gi.n) if indeg[i] == 0]
    heapq.heapify(free)
    while free:
        _, i = heapq.heappop(free)
        if earliest_start:
            proc, start = pool.best_processor(i, insertion=False)
        else:
            proc, _avail = pool.earliest_available_processor()
            start = pool.est_append(i, proc)
        pool.place(i, proc, start)
        for j, _ in gi.succ_rows[i]:
            n_sched_preds[j] += 1
            if n_sched_preds[j] == indeg[j]:
                heapq.heappush(free, (-level[j], j))
    return pool.schedule


def _reference_etf(graph, max_processors):
    gi = graph_index(graph)
    level = b_levels_arr(graph, communication=True)
    pool = IndexedPool(gi, max_processors=max_processors)
    indeg = gi.in_degree
    n_sched_preds = [0] * gi.n
    ready = {i for i in range(gi.n) if indeg[i] == 0}
    while ready:
        best = None
        for i in ready:
            proc, start = pool.best_processor(i, insertion=False)
            key = (start, -level[i], i)
            if best is None or key < best[0]:
                best = (key, i, proc, start)
        _, i, proc, start = best
        pool.place(i, proc, start)
        ready.remove(i)
        for j, _ in gi.succ_rows[i]:
            n_sched_preds[j] += 1
            if n_sched_preds[j] == indeg[j]:
                ready.add(j)
    return pool.schedule


def _reference_topology_mh(graph, topo):
    level = b_levels_view(graph, communication=True)
    seq = {t: i for i, t in enumerate(graph.tasks())}
    schedule = Schedule()
    proc_of = {}
    proc_free = [0.0] * topo.n_processors
    n_sched_preds = {t: 0 for t in graph.tasks()}
    free = [(-level[t], seq[t], t) for t in graph.tasks() if graph.in_degree(t) == 0]
    heapq.heapify(free)
    events = []
    n_done = 0
    while n_done < graph.n_tasks:
        while free:
            _, _, task = heapq.heappop(free)
            best_p, best_start = 0, inf
            for p in range(topo.n_processors):
                start = proc_free[p]
                for pred, c in graph.in_edges(task).items():
                    arrival = schedule.finish(pred) + c * topo.distance(proc_of[pred], p)
                    if arrival > start:
                        start = arrival
                if start < best_start - 1e-12:
                    best_p, best_start = p, start
            schedule.place(task, best_p, best_start, graph.weight(task))
            proc_of[task] = best_p
            proc_free[best_p] = schedule.finish(task)
            heapq.heappush(events, (schedule.finish(task), seq[task], task))
            n_done += 1
        while events:
            _, _, task = heapq.heappop(events)
            for succ in graph.successors(task):
                n_sched_preds[succ] += 1
                if n_sched_preds[succ] == graph.in_degree(succ):
                    heapq.heappush(free, (-level[succ], seq[succ], succ))
    return schedule


def _reference_port_aware(graph, max_processors):
    """MH1P's loop; returns ``(schedule, transfers)``."""
    level = b_levels_view(graph, communication=True)
    seq = {t: i for i, t in enumerate(graph.tasks())}
    schedule = Schedule()
    proc_of = {}
    proc_free, send_free, recv_free = [], [], []
    transfers = []

    def plan(task, proc):
        fresh = proc == len(proc_free)
        start = 0.0 if fresh else proc_free[proc]
        recv_cursor = 0.0 if fresh else recv_free[proc]
        reservations = []
        preds = sorted(
            graph.in_edges(task).items(), key=lambda kv: (-kv[1], seq[kv[0]])
        )
        send_cursor = {}
        for pred, c in preds:
            q = proc_of[pred]
            if q == proc or c == 0.0:
                arrival = schedule.finish(pred)
            else:
                s_free = send_cursor.get(q, send_free[q])
                xfer = max(schedule.finish(pred), s_free, recv_cursor)
                arrival = xfer + c
                send_cursor[q] = arrival
                recv_cursor = arrival
                reservations.append((q, xfer, arrival, pred))
            if arrival > start:
                start = arrival
        return start, recv_cursor, reservations

    n_sched_preds = {t: 0 for t in graph.tasks()}
    free = [(-level[t], seq[t], t) for t in graph.tasks() if graph.in_degree(t) == 0]
    heapq.heapify(free)
    while free:
        _, _, task = heapq.heappop(free)
        can_grow = max_processors is None or len(proc_free) < max_processors
        candidates = list(range(len(proc_free))) + (
            [len(proc_free)] if can_grow or not proc_free else []
        )
        best = None
        for proc in candidates:
            start, recv_cursor, reservations = plan(task, proc)
            key = (start, proc)
            if best is None or key < best[0]:
                best = (key, proc, start, recv_cursor, reservations)
        _, proc, start, recv_cursor, reservations = best
        if proc == len(proc_free):
            proc_free.append(0.0)
            send_free.append(0.0)
            recv_free.append(0.0)
        for q, xfer, arrival, pred in reservations:
            send_free[q] = max(send_free[q], arrival)
            transfers.append((pred, task, xfer, arrival, q, proc))
        recv_free[proc] = max(recv_free[proc], recv_cursor)
        schedule.place(task, proc, start, graph.weight(task))
        proc_free[proc] = schedule.finish(task)
        proc_of[task] = proc
        for succ in graph.successors(task):
            n_sched_preds[succ] += 1
            if n_sched_preds[succ] == graph.in_degree(succ):
                heapq.heappush(free, (-level[succ], seq[succ], succ))
    return schedule, transfers


class _MachineState:
    """HEFT's, HMH's and CPOP's per-processor intervals with speed-scaled
    durations, task-keyed."""

    def __init__(self, graph, speeds):
        self.graph = graph
        self.speeds = speeds
        self.intervals = [[] for _ in speeds]
        self.schedule = Schedule()
        self.proc_of = {}

    def exec_time(self, task, proc):
        return self.graph.weight(task) / self.speeds[proc]

    def est(self, task, proc, insertion):
        duration = self.exec_time(task, proc)
        ready = 0.0
        for pred, c in self.graph.in_edges(task).items():
            arrival = self.schedule.finish(pred)
            if self.proc_of[pred] != proc:
                arrival += c
            ready = max(ready, arrival)
        row = self.intervals[proc]
        if not insertion:
            return max(row[-1][1] if row else 0.0, ready)
        cursor = ready
        for start, finish in row:
            # the pool's rule: no start past the interval's (a task shorter
            # than 1e-12 once slipped inside a longer one)
            if cursor + duration <= start + 1e-12 and cursor <= start:
                return cursor
            if finish > cursor:
                cursor = finish
        return max(cursor, ready)

    def earliest_finish(self, task, insertion):
        best_p, best_finish, best_start = 0, inf, 0.0
        for p in range(len(self.speeds)):
            start = self.est(task, p, insertion)
            finish = start + self.exec_time(task, p)
            if finish < best_finish - 1e-12:
                best_p, best_finish, best_start = p, finish, start
        return best_p, best_start

    def place(self, task, proc, start):
        duration = self.exec_time(task, proc)
        self.schedule.place(task, proc, start, duration)
        insort(self.intervals[proc], (start, start + duration))
        self.proc_of[task] = proc


def _mean_exec(graph, speeds, task):
    return sum(graph.weight(task) / s for s in speeds) / len(speeds)


def _reference_upward_ranks(graph, speeds):
    ranks = {}
    for t in reversed(graph.topological_order()):
        best = 0.0
        for s, c in graph.out_edges(t).items():
            best = max(best, c + ranks[s])
        ranks[t] = _mean_exec(graph, speeds, t) + best
    return ranks


def _reference_heft(graph, speeds, insertion, earliest_finish):
    """HEFT's loop (``earliest_finish``) or HMH's (earliest start)."""
    ranks = _reference_upward_ranks(graph, speeds)
    topo_pos = {t: i for i, t in enumerate(graph.topological_order())}
    state = _MachineState(graph, speeds)
    for task in sorted(graph.tasks(), key=lambda t: (-ranks[t], topo_pos[t])):
        if earliest_finish:
            proc, start = state.earliest_finish(task, insertion)
        else:
            proc, start = 0, inf
            for p in range(len(speeds)):
                s = state.est(task, p, False)
                if s < start - 1e-12:
                    proc, start = p, s
        state.place(task, proc, start)
    return state.schedule


def _reference_cpop(graph, speeds):
    """CPOP's loop.  It sums the critical path's work in task order; the
    old loop summed a set, in hash order, which can only move the last bit
    of a sum that decides the CP processor between near-equal speeds."""
    up = _reference_upward_ranks(graph, speeds)
    down = {}
    for t in graph.topological_order():
        down[t] = max(
            (down[p] + _mean_exec(graph, speeds, p) + c
             for p, c in graph.in_edges(t).items()),
            default=0.0,
        )
    priority = {t: up[t] + down[t] for t in graph.tasks()}
    cp_value = max(up[t] for t in graph.tasks() if graph.in_degree(t) == 0)
    critical = [t for t in graph.tasks() if abs(priority[t] - cp_value) < 1e-9]
    cp_work = sum(graph.weight(t) for t in critical)
    cp_proc = min(range(len(speeds)), key=lambda p: (cp_work / speeds[p], p))
    state = _MachineState(graph, speeds)
    seq = {t: i for i, t in enumerate(graph.topological_order())}
    n_sched_preds = {t: 0 for t in graph.tasks()}
    ready = [(-priority[t], seq[t], t) for t in graph.tasks() if graph.in_degree(t) == 0]
    heapq.heapify(ready)
    while ready:
        _, _, task = heapq.heappop(ready)
        if task in critical:
            proc, start = cp_proc, state.est(task, cp_proc, True)
        else:
            proc, start = state.earliest_finish(task, True)
        state.place(task, proc, start)
        for succ in graph.successors(task):
            n_sched_preds[succ] += 1
            if n_sched_preds[succ] == graph.in_degree(succ):
                heapq.heappush(ready, (-priority[succ], seq[succ], succ))
    return state.schedule


# ----------------------------------------------------------------------
# the configurations: (name, preset run, reference run, machine)
# ----------------------------------------------------------------------
def _port_aware(max_processors):
    def run(graph):
        schedule = PortAwareScheduler(max_processors=max_processors).schedule(graph)
        return schedule, list(schedule.transfers)

    return run


SPEEDS = (1.0, 1.0, 2.0, 4.0)


def _configs():
    configs = []
    for cap in (None, 1, 2, 3):
        configs += [
            (f"MCP({cap})", MCPScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_mcp(g, True, cap)),
            (f"MCP(insertion=False, {cap})",
             MCPScheduler(insertion=False, max_processors=cap).schedule,
             lambda g, cap=cap: _reference_mcp(g, False, cap)),
            (f"MH({cap})", MHScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_mh(g, cap)),
            (f"HU({cap})", HuScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_hu_levels(g, cap, False)),
            (f"HLFET({cap})", HLFETScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_hu_levels(g, cap, True)),
            (f"ETF({cap})", ETFScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_etf(g, cap)),
            (f"DLS({cap})", DLSScheduler(max_processors=cap).schedule,
             lambda g, cap=cap: _reference_dls(g, cap)),
        ]
    configs = [(*config, None) for config in configs]
    for topo in (Ring(8), Star(8), Mesh2D(2, 4), Hypercube(3), FullyConnected(4)):
        machine = Machine(network=topo)
        configs.append(
            (f"MH@{topo!r}", TopologyMHScheduler(machine).schedule,
             lambda g, topo=topo: _reference_topology_mh(g, topo), machine)
        )
    for cap in (None, 1, 3):
        configs.append(
            (f"MH1P({cap})", _port_aware(cap),
             lambda g, cap=cap: _reference_port_aware(g, cap),
             PortAwareScheduler.machine)
        )
    for speeds in (SPEEDS, (1.0,) * 3):
        machine = Machine(speeds)
        configs += [
            (f"HEFT{speeds}", HEFTScheduler(machine).schedule,
             lambda g, sp=speeds: _reference_heft(g, sp, True, True), machine),
            (f"HEFT(insertion=False){speeds}",
             HEFTScheduler(machine, insertion=False).schedule,
             lambda g, sp=speeds: _reference_heft(g, sp, False, True), machine),
            (f"HMH{speeds}", HeteroListScheduler(machine).schedule,
             lambda g, sp=speeds: _reference_heft(g, sp, False, False), machine),
            (f"CPOP{speeds}", CPOPScheduler(machine).schedule,
             lambda g, sp=speeds: _reference_cpop(g, sp), machine),
        ]
    return configs


CONFIGS = _configs()
NAMES = [name for name, *_ in CONFIGS]
HUNT = [g for _, g in hunt_graphs()]


def _outcome(run, graph, machine=None) -> tuple:
    """The schedule's bytes, MH1P's transfers and the ``mcp.*`` counters;
    a preset's schedule is validated on its machine first."""
    with use_registry(MetricsRegistry()) as registry:
        got = run(graph)
    schedule, transfers = got if isinstance(got, tuple) else (got, None)
    if machine is not None:
        schedule.validate(graph, machine)
    counters = {k: v for k, v in registry.counters().items() if k.startswith("mcp.")}
    return dumps(schedule.to_dict()), transfers, counters


def _assert_same(name, run, reference, machine, graphs):
    for k, g in enumerate(graphs):
        assert _outcome(run, g, machine) == _outcome(reference, g), (name, k)


class TestPresetsMatchTheirLoops:
    @pytest.mark.parametrize("config", CONFIGS, ids=NAMES)
    def test_suite(self, config):
        _assert_same(*config, _suite_graphs())

    @pytest.mark.parametrize("config", CONFIGS, ids=NAMES)
    def test_hunt_corpus(self, config):
        _assert_same(*config, HUNT)

    @given(g=tie_graphs())
    @settings(max_examples=200, deadline=None)
    def test_tie_graphs(self, g):
        for config in CONFIGS:
            _assert_same(*config, [g])

    def test_mcp_counters_on_the_suite(self):
        """The default-seed suite's ``mcp.*`` totals stay as recorded."""
        for cap, slots in ((None, 639), (2, 629)):
            with use_registry(MetricsRegistry()) as registry:
                for g in _suite_graphs():
                    MCPScheduler(max_processors=cap).schedule(g)
            assert registry.counters()["mcp.insertion_attempts"] == 4348
            assert registry.counters()["mcp.slot_insertions"] == slots


def _depths(graph) -> dict:
    """Edges on each task's longest path from a source."""
    depth = {}
    for t in graph.topological_order():
        depth[t] = max((depth[p] + 1 for p in graph.predecessors(t)), default=0)
    return depth


def _wave_sort(graph) -> list[int]:
    gi = graph_index(graph)
    depth = _depths(graph)
    level = b_levels_arr(graph, communication=True)
    return sorted(range(gi.n), key=lambda i: (depth[gi.tasks[i]], -level[i], i))


class TestMHWaves:
    """MH's free-then-event heaps place tasks in the ``(depth, -level, id)``
    order, the claim DESIGN.md section 3 proves."""

    def _check(self, graph):
        placed: list[int] = []
        _reference_mh(graph, None, placed)
        assert placed == _wave_sort(graph)
        gi = graph_index(graph)
        assert wave_order(gi, b_levels_arr(graph, communication=True)) == placed

    def test_suite_and_hunt(self):
        for g in (*_suite_graphs(), *HUNT):
            self._check(g)

    @given(g=tie_graphs())
    @settings(max_examples=200, deadline=None)
    def test_tie_graphs(self, g):
        self._check(g)
