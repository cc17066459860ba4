"""Metamorphic properties: relations between schedules of transformed graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Machine, TaskGraph, get_scheduler, paper_schedulers
from repro.core.analysis import critical_path_length
from repro.hetero import CPOPScheduler, HEFTScheduler, HeteroListScheduler
from repro.topology import PortAwareScheduler, Ring, TopologyMHScheduler

from conftest import task_graphs

ALL = ["CLANS", "DSC", "MCP", "MH", "HU", "ETF", "DLS", "HLFET", "LC", "EZ"]
_SPEEDS = Machine([1, 1, 2, 4])
#: The schedulers of the other machines, each knowing its machine.
MACHINE_SCHEDULERS = {
    "HEFT": lambda: HEFTScheduler(_SPEEDS),
    "HMH": lambda: HeteroListScheduler(_SPEEDS),
    "CPOP": lambda: CPOPScheduler(_SPEEDS),
    "MH1P": PortAwareScheduler,
    "MH@Ring4": lambda: TopologyMHScheduler(Machine(network=Ring(4))),
}


def scaled(graph: TaskGraph, factor: float) -> TaskGraph:
    g = TaskGraph()
    for t in graph.tasks():
        g.add_task(t, graph.weight(t) * factor)
    for u, v in graph.edges():
        g.add_edge(u, v, graph.edge_weight(u, v) * factor)
    return g


class TestScaleInvariance:
    """Scaling every weight by c scales every deterministic heuristic's
    makespan by exactly c (priorities and comparisons are scale-invariant;
    c = 2 keeps float arithmetic exact)."""

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("name", ALL)
    def test_makespan_scales(self, name, g):
        sched = get_scheduler(name)
        base = sched.schedule(g).makespan
        doubled = sched.schedule(scaled(g, 2.0)).makespan
        assert doubled == pytest.approx(2.0 * base)

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("name", sorted(MACHINE_SCHEDULERS))
    def test_machine_makespan_scales_exactly(self, name, g):
        """Speeds divide and hops multiply every time by the same factor
        on both graphs, so the doubled graph's schedule is the same one,
        twice as long, on every machine."""
        sched = MACHINE_SCHEDULERS[name]()
        doubled_graph = scaled(g, 2.0)
        base = sched.schedule(g)
        doubled = sched.schedule(doubled_graph)
        base.validate(g, sched.machine)
        doubled.validate(doubled_graph, sched.machine)
        assert doubled.makespan == 2.0 * base.makespan

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=20, deadline=None)
    def test_speedup_is_scale_free(self, g):
        sched = get_scheduler("CLANS")
        s1 = sched.schedule(g)
        s2 = sched.schedule(scaled(g, 2.0))
        assert s1.speedup(g) == pytest.approx(
            s2.speedup(scaled(g, 2.0))
        )


class TestZeroCommunication:
    """With every message free, unbounded EST-based list scheduling starts
    each task at its ASAP time, so the makespan equals the critical path."""

    def zero_comm(self, g: TaskGraph) -> TaskGraph:
        out = TaskGraph()
        for t in g.tasks():
            out.add_task(t, g.weight(t))
        for u, v in g.edges():
            out.add_edge(u, v, 0.0)
        return out

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("name", ["MH", "MCP", "ETF", "DLS", "HLFET", "DSC"])
    def test_est_schedulers_reach_cp(self, name, g):
        zg = self.zero_comm(g)
        s = get_scheduler(name).schedule(zg)
        assert s.makespan == pytest.approx(
            critical_path_length(zg, communication=False)
        )

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=20, deadline=None)
    def test_everyone_at_least_cp(self, g):
        zg = self.zero_comm(g)
        cp = critical_path_length(zg, communication=False)
        for sched in paper_schedulers():
            assert sched.schedule(zg).makespan >= cp - 1e-9


class TestIsolatedTaskAddition:
    """Adding a disconnected task of weight w can raise the makespan to at
    most max(old, w) for any unbounded heuristic that may place it alone —
    and never *reduces* the makespan below the lower bound structure."""

    @given(g=task_graphs(min_tasks=1, max_tasks=9))
    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("name", ["MH", "MCP", "ETF", "CLANS"])
    def test_isolated_task_bound(self, name, g):
        before = get_scheduler(name).schedule(g).makespan
        g2 = g.copy()
        g2.add_task("__isolated__", 1.0)
        after = get_scheduler(name).schedule(g2).makespan
        # the new task is independent: it can't force more than its own
        # weight beyond the previous makespan
        assert after <= before + 1.0 + 1e-9


class TestRelabelInvariance:
    """Renaming tasks must not change any measured quantity that is
    independent of names (CLANS parses structure, not labels)."""

    @given(g=task_graphs(min_tasks=2, max_tasks=10))
    @settings(max_examples=20, deadline=None)
    def test_clans_makespan_stable_under_shift(self, g):
        mapping = {t: ("shifted", t) for t in g.tasks()}
        relabeled = g.relabeled(mapping)
        a = get_scheduler("CLANS").schedule(g).makespan
        b = get_scheduler("CLANS").schedule(relabeled).makespan
        assert a == pytest.approx(b)
