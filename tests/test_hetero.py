"""Tests for the heterogeneous machine model and HEFT."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Machine, Schedule, ScheduleError, TaskGraph
from repro.core.analysis import b_levels
from repro.core.kernels import graph_index
from repro.core.simulator import simulate_clustering
from repro.hetero import CPOPScheduler, HEFTScheduler, HeteroListScheduler
from repro.hetero.heft import mean_durations, upward_ranks
from repro.topology import Ring, TopologyMHScheduler

from conftest import task_graphs


def _one_task(weight: float) -> TaskGraph:
    g = TaskGraph()
    g.add_task("a", weight)
    return g


class TestMachine:
    def test_durations_scale_by_speed(self):
        g = _one_task(20)
        m = Machine([1, 2, 4])
        for proc, duration in ((0, 20.0), (1, 10.0), (2, 5.0)):
            s = simulate_clustering(g, {"a": proc}, machine=m)
            assert s.processor_of("a") == proc
            assert s.finish("a") == duration
            s.validate(g, m)

    def test_mean_durations(self):
        gi = graph_index(_one_task(20))
        assert mean_durations(gi, Machine([1, 2])) == [pytest.approx((20 + 10) / 2)]
        assert mean_durations(gi, Machine()) == [20.0]

    def test_fixed_size(self):
        assert Machine([1, 1, 1]).n_processors == 3
        assert Machine(network=Ring(5)).n_processors == 5
        assert Machine().n_processors is None
        assert Machine().is_paper
        assert not Machine(one_port=True).is_paper

    def test_bad_speeds(self):
        with pytest.raises(ScheduleError):
            Machine([])
        with pytest.raises(ScheduleError):
            Machine([1, 0])
        with pytest.raises(ScheduleError):
            Machine([1, -2])
        with pytest.raises(ScheduleError, match="speeds for a network"):
            Machine([1, 2], network=Ring(3))

    def test_bad_processor(self):
        with pytest.raises(ScheduleError, match="outside"):
            simulate_clustering(_one_task(10), {"a": 5}, machine=Machine([1]))

    def test_repr(self):
        assert repr(Machine()) == "Machine()"
        assert (
            repr(Machine([1, 2], network=Ring(2), one_port=True))
            == "Machine(speeds=[1.0, 2.0], network=Ring(n_processors=2), one_port=True)"
        )

    @pytest.mark.parametrize(
        "make", [HEFTScheduler, HeteroListScheduler, CPOPScheduler, TopologyMHScheduler]
    )
    @pytest.mark.parametrize("machine", [Machine(), Machine([1, 2], one_port=True)])
    def test_fixed_machine_schedulers_refuse_others(self, make, machine):
        with pytest.raises(ScheduleError, match="fixed processor set"):
            make(machine)


class TestUpwardRanks:
    def test_homogeneous_matches_blevel(self, paper_example):
        ranks = upward_ranks(paper_example, Machine([1, 1, 1]))
        levels = b_levels(paper_example, communication=True)
        index_of = graph_index(paper_example).index_of
        for t in paper_example.tasks():
            assert ranks[index_of[t]] == pytest.approx(levels[t])

    def test_monotone_along_edges(self, paper_example):
        ranks = upward_ranks(paper_example, Machine([1, 3]))
        index_of = graph_index(paper_example).index_of
        for u, v in paper_example.edges():
            assert ranks[index_of[u]] > ranks[index_of[v]]


class TestHEFT:
    def test_valid_on_zoo(self, paper_example, diamond, chain5, wide_fork):
        m = Machine([1, 2, 4])
        for g in (paper_example, diamond, chain5, wide_fork):
            s = HEFTScheduler(m).schedule(g)
            s.validate(g, m)

    def test_prefers_fast_processor(self):
        g = _one_task(100)
        m = Machine([1, 10])
        s = HEFTScheduler(m).schedule(g)
        s.validate(g, m)
        assert s.processor_of("a") == 1
        assert s.makespan == pytest.approx(10.0)

    def test_chain_stays_on_fastest(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 10)
            if i:
                g.add_edge(i - 1, i, 5)
        m = Machine([1, 4])
        s = HEFTScheduler(m).schedule(g)
        s.validate(g, m)
        assert all(s.processor_of(i) == 1 for i in range(4))
        assert s.makespan == pytest.approx(10.0)

    def test_beats_speed_blind_baseline_on_skewed_machine(self):
        from repro.generation.workloads import gaussian_elimination

        g = gaussian_elimination(6, comp=20, comm=8)
        m = Machine([1, 1, 2, 4])
        heft = HEFTScheduler(m).schedule(g)
        hmh = HeteroListScheduler(m).schedule(g)
        heft.validate(g, m)
        hmh.validate(g, m)
        assert heft.makespan < hmh.makespan

    def test_homogeneous_equivalence_of_rules(self, wide_fork):
        """On a homogeneous machine EFT and EST orderings coincide up to
        insertion; both must be valid and close."""
        m = Machine([1, 1, 1, 1])
        heft = HEFTScheduler(m).schedule(wide_fork)
        hmh = HeteroListScheduler(m).schedule(wide_fork)
        heft.validate(wide_fork, m)
        hmh.validate(wide_fork, m)
        assert heft.makespan <= hmh.makespan + 1e-9

    def test_insertion_flag(self, paper_example):
        m = Machine([1, 2])
        a = HEFTScheduler(m, insertion=True).schedule(paper_example)
        b = HEFTScheduler(m, insertion=False).schedule(paper_example)
        a.validate(paper_example, m)
        b.validate(paper_example, m)

    def test_on_a_network_with_speeds(self, paper_example, wide_fork):
        m = Machine([1, 2, 1, 2], network=Ring(4))
        for make in (HEFTScheduler, HeteroListScheduler, CPOPScheduler, TopologyMHScheduler):
            for g in (paper_example, wide_fork):
                make(m).schedule(g).validate(g, m)

    def test_empty_graph_rejected(self):
        from repro import GraphError

        with pytest.raises(GraphError):
            HEFTScheduler(Machine([1])).schedule(TaskGraph())

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=40, deadline=None)
    def test_property_always_valid(self, g):
        m = Machine([1, 2, 0.5])
        s = HEFTScheduler(m).schedule(g)
        s.validate(g, m)

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    def test_property_hmh_valid(self, g):
        m = Machine([2, 1])
        s = HeteroListScheduler(m).schedule(g)
        s.validate(g, m)


class TestValidateOnMachine:
    def test_catches_wrong_duration(self):
        g = _one_task(10)
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)  # should be 5 on a speed-2 processor
        with pytest.raises(ScheduleError, match="expected 5.0 on processor 0"):
            s.validate(g, Machine([2]))
        s.validate(g)  # the paper's machine runs it in its weight

    def test_catches_out_of_machine(self):
        g = _one_task(10)
        s = Schedule()
        s.place("a", 5, 0.0, 10.0)
        with pytest.raises(ScheduleError, match="outside"):
            s.validate(g, Machine([1]))
        with pytest.raises(ScheduleError, match="outside"):
            s.validate(g, Machine(network=Ring(3)))
        s.validate(g)  # the paper's pool is unbounded
