"""Tests for the local-search improver and the one-port contention model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Machine, TaskGraph, get_scheduler
from repro.core.simulator import simulate_clustering
from repro.schedulers.improve import LocalSearchImprover

from conftest import task_graphs

ONE_PORT = Machine(one_port=True)


def _one_port_timing(graph, assignment):
    """Time ``assignment`` on the one-port machine and check the result."""
    s = simulate_clustering(graph, assignment, machine=ONE_PORT)
    s.validate(graph, ONE_PORT)
    return s


class TestLocalSearchImprover:
    def test_never_worse_than_inner(self, paper_example, diamond, wide_fork, two_sources_join):
        for inner in ("HU", "MH", "MCP"):
            for g in (paper_example, diamond, wide_fork, two_sources_join):
                base = get_scheduler(inner).schedule(g)
                improved = LocalSearchImprover(inner).schedule(g)
                improved.validate(g)
                assert improved.makespan <= base.makespan + 1e-9

    def test_improves_hu_badly_spread_schedule(self, two_sources_join):
        """HU retards this graph; one move fixes it — the improver must
        find it."""
        hu = get_scheduler("HU").schedule(two_sources_join)
        assert hu.makespan > two_sources_join.serial_time()
        improver = LocalSearchImprover("HU")
        improved = improver.schedule(two_sources_join)
        assert improved.makespan <= two_sources_join.serial_time() + 1e-9
        assert improver.last_moves >= 1

    def test_fixed_point_counts_zero_moves(self, chain5):
        improver = LocalSearchImprover("MCP")
        improver.schedule(chain5)  # a chain on one processor is optimal
        assert improver.last_moves == 0

    def test_name(self):
        assert LocalSearchImprover("DSC").name == "DSC+ls"

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            LocalSearchImprover("MCP", max_rounds=0)

    @given(g=task_graphs(min_tasks=1, max_tasks=9))
    @settings(max_examples=20, deadline=None)
    def test_property_valid_and_no_worse(self, g):
        base = get_scheduler("MH").schedule(g)
        improved = LocalSearchImprover("MH", max_rounds=2).schedule(g)
        improved.validate(g)
        assert improved.makespan <= base.makespan + 1e-9


class TestOnePortContention:
    def test_serial_unaffected(self, chain5):
        res = _one_port_timing(chain5, {t: 0 for t in chain5.tasks()})
        assert res.makespan == chain5.serial_time()
        assert res.transfers == ()

    def test_single_transfer_timing(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 5)
        res = _one_port_timing(g, {"a": 0, "b": 1})
        assert res.start("b") == 15.0
        (x,) = res.transfers
        assert (x.start, x.finish) == (10.0, 15.0)

    def test_fanout_serializes_sends(self):
        """One producer, three remote consumers: under one-port the three
        messages leave one after another."""
        g = TaskGraph()
        g.add_task("src", 10)
        for i in range(3):
            g.add_task(i, 1)
            g.add_edge("src", i, 6)
        assignment = {"src": 0, 0: 1, 1: 2, 2: 3}
        res = _one_port_timing(g, assignment)
        starts = sorted(res.start(i) for i in range(3))
        assert starts == [16.0, 22.0, 28.0]
        # contention-free model would start all three at 16
        from repro.core.simulator import simulate_clustering

        free = simulate_clustering(g, assignment)
        assert free.start(0) == free.start(1) == free.start(2) == 16.0

    def test_fanin_serializes_receives(self):
        g = TaskGraph()
        g.add_task("sink", 1)
        for i in range(3):
            g.add_task(i, 10)
            g.add_edge(i, "sink", 6)
        assignment = {0: 0, 1: 1, 2: 2, "sink": 3}
        res = _one_port_timing(g, assignment)
        # three transfers into proc 3 serialize: 16, 22, 28
        assert res.start("sink") == 28.0

    def test_zero_cost_messages_free(self):
        g = TaskGraph()
        g.add_task("a", 5)
        g.add_task("b", 5)
        g.add_edge("a", "b", 0)
        res = _one_port_timing(g, {"a": 0, "b": 1})
        assert res.transfers == ()
        assert res.start("b") == 5.0

    def test_port_busy_time(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 7)
        res = _one_port_timing(g, {"a": 0, "b": 1})
        assert sum(x.finish - x.start for x in res.transfers) == 7.0

    def test_processor_ids_kept(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 7)
        res = _one_port_timing(g, {"a": 5, "b": 9})
        assert (res.processor_of("a"), res.processor_of("b")) == (5, 9)
        assert [(x.from_proc, x.to_proc) for x in res.transfers] == [(5, 9)]

    def test_bad_assignment(self, diamond):
        from repro import ScheduleError

        with pytest.raises(ScheduleError):
            _one_port_timing(diamond, {"a": 0})

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_contention_never_faster_than_free(self, g):
        from repro.core.simulator import simulate_clustering

        assignment = {t: i % 3 for i, t in enumerate(g.tasks())}
        free = simulate_clustering(g, assignment)
        port = _one_port_timing(g, assignment)
        assert port.makespan >= free.makespan - 1e-9
        port.validate(g)  # one-port delays only: still model-valid
