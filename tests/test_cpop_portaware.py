"""Tests for CPOP, the contention-aware list scheduler and the one-port
checks of ``Schedule.validate``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import GraphError, Machine, Schedule, ScheduleError, TaskGraph
from repro.core.kernels import graph_index
from repro.core.schedule import Transfer
from repro.core.simulator import simulate_clustering
from repro.hetero import CPOPScheduler, HEFTScheduler
from repro.hetero.cpop import downward_ranks
from repro.topology import PortAwareScheduler

from conftest import task_graphs

ONE_PORT = Machine(one_port=True)


class TestDownwardRanks:
    def test_sources_zero(self, paper_example):
        down = downward_ranks(paper_example, Machine([1, 1]))
        assert down[graph_index(paper_example).index_of[1]] == 0.0

    def test_matches_tlevel_on_homogeneous(self, paper_example):
        from repro.core.analysis import t_levels

        down = downward_ranks(paper_example, Machine([1, 1, 1, 1]))
        tl = t_levels(paper_example, communication=True)
        index_of = graph_index(paper_example).index_of
        for t in paper_example.tasks():
            assert down[index_of[t]] == pytest.approx(tl[t])


class TestCPOP:
    def test_valid_on_zoo(self, paper_example, diamond, chain5, wide_fork):
        for m in (Machine([1, 1, 1]), Machine([1, 2])):
            for g in (paper_example, diamond, chain5, wide_fork):
                s = CPOPScheduler(m).schedule(g)
                s.validate(g, m)

    def test_critical_path_pinned_to_one_processor(self, chain5):
        """A chain *is* the critical path: all of it lands on the CP
        processor — the fastest one."""
        m = Machine([1, 3, 2])
        s = CPOPScheduler(m).schedule(chain5)
        s.validate(chain5, m)
        procs = {s.processor_of(t) for t in chain5.tasks()}
        assert procs == {1}  # the speed-3 processor

    def test_competitive_with_heft_on_pinning_friendly_graphs(self):
        """One long chain plus light side work: pinning the chain to the
        fast processor is exactly right."""
        g = TaskGraph()
        prev = None
        for i in range(6):
            g.add_task(("c", i), 30)
            if prev is not None:
                g.add_edge(prev, ("c", i), 2)
            prev = ("c", i)
        for i in range(4):
            g.add_task(("side", i), 5)
            g.add_edge(("c", 0), ("side", i), 2)
        m = Machine([0.5, 0.5, 2])
        cpop = CPOPScheduler(m).schedule(g)
        heft = HEFTScheduler(m).schedule(g)
        cpop.validate(g, m)
        heft.validate(g, m)
        assert cpop.makespan <= heft.makespan * 1.1 + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            CPOPScheduler(Machine([1])).schedule(TaskGraph())

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_property_valid(self, g):
        m = Machine([1, 2, 0.5])
        s = CPOPScheduler(m).schedule(g)
        s.validate(g, m)


class TestPortAware:
    def test_valid_under_free_model_too(self, paper_example, diamond, wide_fork):
        """One-port feasibility implies free-model feasibility."""
        for g in (paper_example, diamond, wide_fork):
            s = PortAwareScheduler().schedule(g)
            s.validate(g, ONE_PORT)
            s.validate(g)

    def test_transfers_come_with_the_schedule(self, wide_fork):
        s = PortAwareScheduler().schedule(wide_fork)
        s.validate(wide_fork, ONE_PORT)
        assert s.transfers
        assert all(isinstance(x, Transfer) for x in s.transfers)
        # a later call returns its own transfers and leaves these alone
        before = s.transfers
        PortAwareScheduler().schedule(wide_fork).validate(wide_fork, ONE_PORT)
        assert s.transfers is before

    def test_beats_blind_mh_under_contention(self):
        """On a wide fan-out with significant messages, planning around the
        ports must beat re-timing a contention-blind schedule."""
        g = TaskGraph()
        g.add_task("src", 5)
        for i in range(8):
            g.add_task(i, 20)
            g.add_edge("src", i, 10)
        from repro import MHScheduler

        blind = MHScheduler().schedule(g)
        blind_retimed = simulate_clustering(
            g, {p.task: p.processor for p in blind}, machine=ONE_PORT
        )
        blind_retimed.validate(g, ONE_PORT)
        aware = PortAwareScheduler().schedule(g)
        assert aware.makespan <= blind_retimed.makespan + 1e-9

    def test_max_processors(self, wide_fork):
        s = PortAwareScheduler(max_processors=2).schedule(wide_fork)
        assert s.n_processors <= 2
        s.validate(wide_fork, ONE_PORT)

    def test_bad_max(self):
        with pytest.raises(GraphError):
            PortAwareScheduler(max_processors=0)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            PortAwareScheduler().schedule(TaskGraph())

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_property_valid_and_port_feasible(self, g):
        PortAwareScheduler().schedule(g).validate(g, ONE_PORT)


def _fan() -> TaskGraph:
    """``src`` feeding ``a`` and ``b`` over messages of cost 5, and a free
    edge ``src -> z``."""
    g = TaskGraph()
    for t in ("src", "a", "b", "z"):
        g.add_task(t, 10)
    g.add_edge("src", "a", 5)
    g.add_edge("src", "b", 5)
    g.add_edge("src", "z", 0)
    return g


def _one_port_schedule(transfers) -> Schedule:
    s = Schedule()
    s.place("src", 0, 0.0, 10.0)
    s.place("a", 1, 15.0, 10.0)
    s.place("b", 2, 20.0, 10.0)
    s.place("z", 3, 10.0, 10.0)
    s.transfers = tuple(transfers)
    return s


GOOD = [
    Transfer("src", "a", 10.0, 15.0, 0, 1),
    Transfer("src", "b", 15.0, 20.0, 0, 2),
]


class TestOnePortValidation:
    """The one-port checks reject every planted port violation."""

    def test_feasible(self):
        _one_port_schedule(GOOD).validate(_fan(), ONE_PORT)

    def test_free_model_ignores_transfers(self):
        _one_port_schedule([]).validate(_fan())

    @pytest.mark.parametrize(
        "transfers, message",
        [
            (GOOD[:1], "no transfer carries 'src' -> 'b'"),
            (GOOD + GOOD[1:], "two transfers carry"),
            (GOOD + [Transfer("src", "z", 10.0, 10.0, 0, 3)], "carries no message"),
            ([Transfer("src", "a", 9.0, 14.0, 0, 1), GOOD[1]], "does not carry"),
            ([GOOD[0], Transfer("src", "b", 16.0, 21.0, 0, 2)], "does not carry"),
            ([GOOD[0], Transfer("src", "b", 15.0, 19.0, 0, 2)], "does not carry"),
            ([GOOD[0], Transfer("src", "b", 15.0, 20.0, 1, 2)], "does not carry"),
            (
                [GOOD[0], Transfer("src", "b", 12.0, 17.0, 0, 2)],
                "overlap on the send port of processor 0",
            ),
        ],
    )
    def test_violations(self, transfers, message):
        with pytest.raises(ScheduleError, match=message):
            _one_port_schedule(transfers).validate(_fan(), ONE_PORT)

    def test_receive_port_overlap(self):
        g = TaskGraph()
        for t in ("x", "y", "sink"):
            g.add_task(t, 10)
        g.add_edge("x", "sink", 5)
        g.add_edge("y", "sink", 5)
        s = Schedule()
        s.place("x", 0, 0.0, 10.0)
        s.place("y", 1, 0.0, 10.0)
        s.place("sink", 2, 15.0, 10.0)
        s.transfers = (
            Transfer("x", "sink", 10.0, 15.0, 0, 2),
            Transfer("y", "sink", 10.0, 15.0, 1, 2),
        )
        s.validate(g)  # free overlap: both messages arrive at 15
        with pytest.raises(ScheduleError, match="receive port of processor 2"):
            s.validate(g, ONE_PORT)

    def test_hop_scaled_transfer_length(self):
        from repro.topology import Ring

        g = TaskGraph()
        g.add_task("u", 10)
        g.add_task("v", 10)
        g.add_edge("u", "v", 5)
        machine = Machine(network=Ring(6), one_port=True)
        s = simulate_clustering(g, {"u": 0, "v": 3}, machine=machine)
        assert s.transfers == (Transfer("u", "v", 10.0, 25.0, 0, 3),)
        s.validate(g, machine)
        with pytest.raises(ScheduleError, match="does not carry"):
            s.validate(g, Machine(network=Ring(4), one_port=True))
