"""Cross-cutting scheduler tests: every heuristic, shared contracts."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings

from repro import (
    GraphError,
    ScheduleError,
    TaskGraph,
    get_scheduler,
    paper_schedulers,
)
from repro.core.analysis import critical_path_length
from repro.core.machine import Machine
from repro.hetero import CPOPScheduler, HEFTScheduler, HeteroListScheduler
from repro.schedulers import SCHEDULER_REGISTRY
from repro.topology import PortAwareScheduler, Ring, TopologyMHScheduler

from conftest import task_graphs, tie_graphs

ALL_NAMES = ["CLANS", "DSC", "MCP", "MH", "HU", "ETF", "SERIAL"]


def _every_scheduler():
    """(label, scheduler) for every registered scheduler with its defaults,
    its ``max_processors=2`` variant where it has one, and the machine
    presets: HEFT, HMH and CPOP on speeds [1, 1, 2, 4], the topology MH on
    ``Ring(4)`` and MH1P."""
    out = [(name, cls()) for name, cls in sorted(SCHEDULER_REGISTRY.items())]
    out += [
        (f"{name}(max_processors=2)", cls(max_processors=2))
        for name, cls in sorted(SCHEDULER_REGISTRY.items())
        if "max_processors" in inspect.signature(cls).parameters
    ]
    speeds = Machine([1, 1, 2, 4])
    out += [
        ("HEFT[1, 1, 2, 4]", HEFTScheduler(speeds)),
        ("HMH[1, 1, 2, 4]", HeteroListScheduler(speeds)),
        ("CPOP[1, 1, 2, 4]", CPOPScheduler(speeds)),
        ("MH@Ring(4)", TopologyMHScheduler(Machine(network=Ring(4)))),
        ("MH1P", PortAwareScheduler()),
    ]
    return out


#: The searches that run other schedulers many times, and the exact oracle.
_COSTLY = ("GA", "SA", "OPT")
EVERY_SCHEDULER = _every_scheduler()
CHEAP = [(n, s) for n, s in EVERY_SCHEDULER if s.name not in _COSTLY]
COSTLY = [(n, s) for n, s in EVERY_SCHEDULER if s.name in _COSTLY]


@pytest.fixture(params=ALL_NAMES)
def scheduler(request):
    return get_scheduler(request.param)


class TestRegistry:
    def test_paper_schedulers_order(self):
        names = [s.name for s in paper_schedulers()]
        assert names == ["CLANS", "DSC", "MCP", "MH", "HU"]

    def test_lookup_case_insensitive(self):
        assert get_scheduler("clans").name == "CLANS"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            get_scheduler("NOPE")

    def test_registry_contents(self):
        for name in ALL_NAMES + ["OPT"]:
            assert name in SCHEDULER_REGISTRY

    def test_repr(self):
        assert "DSCScheduler" in repr(get_scheduler("DSC"))


class TestSharedContract:
    def test_empty_graph_rejected(self, scheduler):
        with pytest.raises(GraphError):
            scheduler.schedule(TaskGraph())

    def test_single_task(self, scheduler, single):
        s = scheduler.schedule(single)
        s.validate(single)
        assert s.makespan == 7.0
        assert s.n_processors == 1

    @pytest.mark.parametrize(
        "fixture", ["paper_example", "diamond", "chain5", "two_sources_join", "wide_fork"]
    )
    def test_valid_on_zoo(self, scheduler, fixture, request):
        g = request.getfixturevalue(fixture)
        s = scheduler.schedule(g)
        s.validate(g)

    def test_deterministic(self, scheduler, paper_example):
        a = scheduler.schedule(paper_example)
        b = scheduler.schedule(paper_example)
        assert a.makespan == b.makespan
        for t in paper_example.tasks():
            assert a[t] == b[t]

    def test_zero_weight_tasks_ok(self, scheduler):
        g = TaskGraph()
        g.add_task("a", 0)
        g.add_task("b", 5)
        g.add_edge("a", "b", 2)
        s = scheduler.schedule(g)
        s.validate(g)

    def test_disconnected_components(self, scheduler):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 10)
        g.add_edge(0, 1, 3)
        g.add_edge(2, 3, 3)
        s = scheduler.schedule(g)
        s.validate(g)

    def test_input_graph_not_mutated(self, scheduler, paper_example):
        before = paper_example.copy()
        scheduler.schedule(paper_example)
        assert paper_example == before


class TestPropertyAllSchedulers:
    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=50, deadline=None)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_always_valid(self, name, g):
        s = get_scheduler(name).schedule(g)
        s.validate(g)

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_makespan_at_least_comm_free_cp(self, name, g):
        """No schedule can beat the communication-free critical path."""
        s = get_scheduler(name).schedule(g)
        assert s.makespan >= critical_path_length(g, communication=False) - 1e-9

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=40, deadline=None)
    def test_clans_never_retards(self, g):
        s = get_scheduler("CLANS").schedule(g)
        assert s.makespan <= g.serial_time() + 1e-9


class TestEveryScheduleValid:
    """Every scheduler emits a schedule that is valid on its own machine,
    on graphs built for ties (zero weights, 1e-12 weights, equal levels)."""

    @staticmethod
    def _check(schedulers, g):
        for label, scheduler in schedulers:
            if scheduler.name == "OPT" and g.n_tasks > 10:
                continue  # OPT refuses larger graphs
            schedule = scheduler.schedule(g)
            try:
                schedule.validate(g, getattr(scheduler, "machine", None))
            except ScheduleError as exc:
                raise AssertionError(f"{label}: {exc}") from exc

    @given(g=tie_graphs())
    @settings(max_examples=150, deadline=None)
    def test_list_and_clustering_schedulers(self, g):
        self._check(CHEAP, g)

    @given(g=tie_graphs())
    @settings(max_examples=20, deadline=None)
    def test_searches_and_the_oracle(self, g):
        self._check(COSTLY, g)
