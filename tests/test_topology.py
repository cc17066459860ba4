"""Tests for the topology subpackage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Machine, MHScheduler, ScheduleError, TaskGraph
from repro.core.simulator import simulate_clustering
from repro.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    Star,
    TopologyMHScheduler,
)

from conftest import task_graphs


class TestNetworks:
    def test_fully_connected(self):
        t = FullyConnected(5)
        assert t.distance(0, 0) == 0
        assert t.distance(0, 4) == 1
        assert t.diameter == 1

    def test_ring(self):
        t = Ring(6)
        assert t.distance(0, 1) == 1
        assert t.distance(0, 3) == 3
        assert t.distance(0, 5) == 1  # shorter way around
        assert t.diameter == 3

    def test_mesh(self):
        t = Mesh2D(2, 3)
        assert t.n_processors == 6
        assert t.distance(0, 5) == 3  # (0,0) -> (1,2)
        assert t.distance(1, 4) == 1  # (0,1) -> (1,1)

    def test_hypercube(self):
        t = Hypercube(3)
        assert t.n_processors == 8
        assert t.distance(0, 7) == 3
        assert t.distance(5, 4) == 1
        assert t.diameter == 3

    def test_star(self):
        t = Star(5)
        assert t.distance(0, 3) == 1
        assert t.distance(2, 3) == 2

    def test_symmetry_and_identity(self):
        for t in (Ring(7), Mesh2D(3, 3), Hypercube(2), Star(4), FullyConnected(4)):
            for p in range(t.n_processors):
                assert t.distance(p, p) == 0
                for q in range(t.n_processors):
                    assert t.distance(p, q) == t.distance(q, p)

    def test_out_of_range(self):
        with pytest.raises(ScheduleError):
            Ring(3).distance(0, 5)

    def test_bad_sizes(self):
        with pytest.raises(ScheduleError):
            FullyConnected(0)
        with pytest.raises(ScheduleError):
            Mesh2D(0, 3)
        with pytest.raises(ScheduleError):
            Hypercube(-1)


def _pair(cost: float = 5) -> TaskGraph:
    g = TaskGraph()
    g.add_task("a", 10)
    g.add_task("b", 10)
    g.add_edge("a", "b", cost)
    return g


class TestSimulateOnNetwork:
    def test_hop_scaled_arrival(self):
        g = _pair()
        ring = Machine(network=Ring(6))
        s = simulate_clustering(g, {"a": 0, "b": 3}, machine=ring)
        assert s.start("b") == 10 + 5 * 3
        s.validate(g, ring)

    def test_same_processor_free_and_ids_kept(self):
        g = _pair()
        s = simulate_clustering(g, {"a": 2, "b": 2}, machine=Machine(network=Ring(6)))
        assert s.start("b") == 10.0
        # a fixed machine keeps the assignment's processors; the paper's
        # identical clique renumbers them
        assert s.processor_of("b") == 2
        assert simulate_clustering(g, {"a": 2, "b": 2}).processor_of("b") == 0

    def test_clique_matches_uniform_simulator(self, paper_example):
        assignment = {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
        uniform = simulate_clustering(paper_example, assignment)
        topo = simulate_clustering(
            paper_example, assignment, machine=Machine(network=FullyConnected(2))
        )
        assert uniform.makespan == pytest.approx(topo.makespan)

    def test_bad_assignment(self, diamond):
        ring = Machine(network=Ring(3))
        with pytest.raises(ScheduleError):
            simulate_clustering(diamond, {"a": 0}, machine=ring)
        with pytest.raises(ScheduleError, match="outside"):
            simulate_clustering(diamond, {t: 9 for t in diamond.tasks()}, machine=ring)

    def test_validation_catches_violation(self):
        g = _pair()
        from repro import Schedule

        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 3, 16.0, 10.0)  # needs 10 + 15 on a 6-ring
        s.validate(g)  # one hop on the paper's clique
        with pytest.raises(ScheduleError, match="arrives at 25.0"):
            s.validate(g, Machine(network=Ring(6)))


class TestTopologyMH:
    def test_clique_reduces_to_bounded_mh(self, paper_example, diamond, wide_fork):
        for g in (paper_example, diamond, wide_fork):
            for p in (2, 3):
                machine = Machine(network=FullyConnected(p))
                topo = TopologyMHScheduler(machine).schedule(g)
                topo.validate(g, machine)
                plain = MHScheduler(max_processors=p).schedule(g)
                assert topo.makespan == pytest.approx(plain.makespan)

    def test_valid_on_all_networks(self, paper_example, wide_fork):
        for net in (Ring(4), Mesh2D(2, 2), Hypercube(2), Star(4)):
            machine = Machine(network=net)
            for g in (paper_example, wide_fork):
                s = TopologyMHScheduler(machine).schedule(g)
                s.validate(g, machine)

    def test_sparser_networks_never_faster(self, wide_fork):
        """With the same processor count, adding hops cannot help."""
        def run(net):
            machine = Machine(network=net)
            s = TopologyMHScheduler(machine).schedule(wide_fork)
            s.validate(wide_fork, machine)
            return s

        clique, ring, star = run(FullyConnected(8)), run(Ring(8)), run(Star(8))
        assert clique.makespan <= ring.makespan + 1e-9
        assert clique.makespan <= star.makespan + 1e-9

    def test_name(self):
        assert TopologyMHScheduler(Machine(network=Ring(8))).name == "MH@Ring8"
        assert TopologyMHScheduler(Machine([1, 2])).name == "MH@2"

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    def test_property_valid_on_ring(self, g):
        machine = Machine(network=Ring(3))
        s = TopologyMHScheduler(machine).schedule(g)
        s.validate(g, machine)
