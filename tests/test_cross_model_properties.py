"""Cross-model property tests: relations between the four execution models.

The library times schedules under four related models — free-overlap
uniform (the paper's), topology hop-scaled, one-port contention, and
heterogeneous speeds.  These properties pin how they must relate:

* a fully connected topology reproduces the uniform model exactly;
* one-port timing dominates (is never faster than) free-overlap timing;
* homogeneous unit speeds reproduce the uniform durations, and without
  communication a uniformly faster machine scales HEFT's schedule exactly
  (with communication it may even lengthen it);
* bounding can only lengthen the best unbounded schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Machine, TaskGraph, get_scheduler
from repro.core.simulator import simulate_clustering
from repro.hetero import HEFTScheduler
from repro.schedulers import BoundedScheduler
from repro.topology import FullyConnected, Ring

from conftest import task_graphs


ONE_PORT = Machine(one_port=True)


def _assignment(g, data, n_procs):
    return {
        t: data.draw(st.integers(0, n_procs - 1), label=f"proc[{t}]")
        for t in g.tasks()
    }


class TestTopologyVsUniform:
    @given(g=task_graphs(min_tasks=1, max_tasks=10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_clique_equals_uniform(self, g, data):
        assignment = _assignment(g, data, 3)
        uniform = simulate_clustering(g, assignment)
        machine = Machine(network=FullyConnected(3))
        clique = simulate_clustering(g, assignment, machine=machine)
        clique.validate(g, machine)
        assert clique.makespan == pytest.approx(uniform.makespan)

    @given(g=task_graphs(min_tasks=1, max_tasks=10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_never_faster_than_clique(self, g, data):
        assignment = _assignment(g, data, 4)
        clique = simulate_clustering(
            g, assignment, machine=Machine(network=FullyConnected(4))
        )
        ring_machine = Machine(network=Ring(4))
        ring = simulate_clustering(g, assignment, machine=ring_machine)
        ring.validate(g, ring_machine)
        assert ring.makespan >= clique.makespan - 1e-9


class TestOnePortVsFree:
    @given(g=task_graphs(min_tasks=1, max_tasks=10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_contention_dominates(self, g, data):
        assignment = _assignment(g, data, 3)
        free = simulate_clustering(g, assignment)
        port = simulate_clustering(g, assignment, machine=ONE_PORT)
        assert port.makespan >= free.makespan - 1e-9
        # and the one-port schedule remains valid under the free model
        port.validate(g, ONE_PORT)
        port.validate(g)

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    def test_single_processor_immune_to_ports(self, g):
        assignment = {t: 0 for t in g.tasks()}
        free = simulate_clustering(g, assignment)
        port = simulate_clustering(g, assignment, machine=ONE_PORT)
        assert port.makespan == pytest.approx(free.makespan)
        assert port.transfers == ()


def _faster_is_slower() -> TaskGraph:
    """Nine unit tasks on which HEFT's makespan on three processors is 4.0
    at speed 1 and 4.5 at speed 2 (a hypothesis find)."""
    g = TaskGraph()
    for t in range(9):
        g.add_task(t, 1)
    for u, v, c in [(0, 1, 0), (0, 4, 0), (1, 6, 0), (2, 5, 5), (4, 5, 3), (6, 8, 4)]:
        g.add_edge(u, v, c)
    return g


class TestHeteroVsUniform:
    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_unit_speeds_have_uniform_durations(self, g):
        m = Machine([1, 1, 1])
        s = HEFTScheduler(m).schedule(g)
        s.validate(g, m)
        s.validate(g)  # unit speeds: also valid under the paper's model

    @given(
        g=task_graphs(min_tasks=1, max_tasks=9),
        factor=st.sampled_from([2.0, 4.0]),
    )
    @example(g=_faster_is_slower(), factor=2.0)
    @settings(max_examples=25, deadline=None)
    def test_uniformly_faster_machine_scales_makespan(self, g, factor):
        slow_machine = Machine([1] * 3)
        fast_machine = Machine([factor] * 3)
        slow = HEFTScheduler(slow_machine).schedule(g)
        fast = HEFTScheduler(fast_machine).schedule(g)
        slow.validate(g, slow_machine)
        fast.validate(g, fast_machine)
        # Computation shrinks by `factor` but messages do not, so with
        # communication the upward ranks, hence HEFT's order, can change
        # and the fast machine is not always faster (see below).  Without
        # it every rank and time divides by the power of two `factor`
        # exactly: the same schedule, scaled.
        if all(g.edge_weight(u, v) == 0 for u, v in g.edges()):
            assert fast.makespan == slow.makespan / factor
            for t in g.tasks():
                assert fast.processor_of(t) == slow.processor_of(t)
                assert fast.start(t) == slow.start(t) / factor

    def test_faster_machine_can_lengthen_heft_schedule(self):
        """HEFT is not monotone in machine speed.  At speed s the upward
        ranks of tasks 0 and 2 are 4 + 4/s and 5 + 2/s: 8 > 7 at s = 1, a
        tie at s = 2 that topological position breaks for 2.  At s = 1, 0
        goes first to processor 0 and 2 to processor 1; 4 (fed by 0 over a
        free edge) joins 2 on processor 1, so 5 has both inputs local and
        starts at 2.  At s = 2, 2 takes processor 0 and 0 processor 1, 4
        follows 0, and 5 must wait for 4's message of 3: it starts at
        1.0 + 3 = 4.0 and ends at 4.5, after the slow machine's 4.0."""
        g = _faster_is_slower()
        slow = HEFTScheduler(Machine([1] * 3)).schedule(g)
        fast = HEFTScheduler(Machine([2] * 3)).schedule(g)
        slow.validate(g, Machine([1] * 3))
        fast.validate(g, Machine([2] * 3))
        assert slow.makespan == 4.0
        assert fast.makespan == 4.5
        assert slow.processor_of(5) == slow.processor_of(2) == slow.processor_of(4)
        assert fast.processor_of(5) == fast.processor_of(2) != fast.processor_of(4)
        assert fast.start(5) == fast.finish(4) + g.edge_weight(4, 5)


class TestBoundedVsUnbounded:
    @given(g=task_graphs(min_tasks=1, max_tasks=10), p=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_bounding_never_beats_unbounded(self, g, p):
        unbounded = get_scheduler("MCP").schedule(g)
        bounded = BoundedScheduler("MCP", p).schedule(g)
        if unbounded.n_processors <= p:
            # no folding needed: the unbounded schedule is returned verbatim
            assert bounded.makespan == pytest.approx(unbounded.makespan)
        else:
            assert bounded.n_processors <= p
        # note: a folded schedule CAN occasionally beat the unbounded one
        # (the fold re-orders clusters by b-level), so no ordering between
        # the two makespans is asserted in the folding case.
