"""Tests for the brute-force optimal oracle and ETF baseline."""

from __future__ import annotations

from math import inf

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    ETFScheduler,
    GraphError,
    OptimalScheduler,
    ScheduleError,
    TaskGraph,
    paper_schedulers,
)
from repro.core.simulator import simulate_ordered
from repro.generation.random_dag import generate_pdg

from conftest import task_graphs


def _clusterings(tasks: list):
    """Every set partition of ``tasks`` with every order inside each block,
    each once: the last task joins any block at any position, or opens a
    block of its own after the others."""
    if not tasks:
        yield []
        return
    *rest, last = tasks
    for clusters in _clusterings(rest):
        for k, cluster in enumerate(clusters):
            for pos in range(len(cluster) + 1):
                yield [
                    *clusters[:k],
                    [*cluster[:pos], last, *cluster[pos:]],
                    *clusters[k + 1 :],
                ]
        yield [*clusters, [last]]


def _enumerated_optimum(graph: TaskGraph) -> float:
    """The smallest makespan over every clustering, each timed
    semi-actively by the shared simulator; orders that deadlock against
    precedence are skipped."""
    best = inf
    for clusters in _clusterings(graph.tasks()):
        try:
            best = min(best, simulate_ordered(graph, clusters, validate=False).makespan)
        except ScheduleError:
            continue
    return best


class TestOptimal:
    def test_refuses_large_graphs(self, rng):
        g = TaskGraph()
        for i in range(11):
            g.add_task(i, 1)
        with pytest.raises(GraphError, match="exponential"):
            OptimalScheduler().schedule(g)

    def test_single(self, single):
        s = OptimalScheduler().schedule(single)
        assert s.makespan == 7.0

    def test_exact_on_diamond(self, diamond):
        # best found: a,b on P0; c on P1 at 14 (done 24); d follows c on
        # P1 at 24 (b's message lands exactly then) -> makespan 34.
        s = OptimalScheduler().schedule(diamond)
        s.validate(diamond)
        assert s.makespan == pytest.approx(34.0)

    def test_independent_tasks_fully_parallel(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 10)
        s = OptimalScheduler().schedule(g)
        assert s.makespan == 10.0
        assert s.n_processors == 4

    def test_heavy_comm_serializes(self, two_sources_join):
        s = OptimalScheduler().schedule(two_sources_join)
        assert s.makespan == two_sources_join.serial_time()

    @given(g=task_graphs(min_tasks=1, max_tasks=6))
    @settings(max_examples=40, deadline=None)
    def test_never_beaten_by_heuristics(self, g):
        """The oracle lower-bounds every heuristic."""
        opt = OptimalScheduler().schedule(g)
        opt.validate(g)
        for sched in paper_schedulers():
            h = sched.schedule(g)
            assert opt.makespan <= h.makespan + 1e-9

    @given(g=task_graphs(min_tasks=1, max_tasks=6))
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_serial(self, g):
        opt = OptimalScheduler().schedule(g)
        assert opt.makespan <= g.serial_time() + 1e-9


class TestOptimalIsExact:
    """OPT equals the optimum over every assignment and processor order
    (DESIGN.md section 2), up to its 1e-12 pruning margin."""

    def _check(self, g):
        opt = OptimalScheduler().schedule(g).makespan
        best = _enumerated_optimum(g)
        assert best <= opt <= best + 1e-12

    def test_enumeration_counts(self):
        # the ordered set partitions of n items: 1, 3, 13, 73, 501, 4051
        counts = [sum(1 for _ in _clusterings(list(range(n)))) for n in range(1, 7)]
        assert counts == [1, 3, 13, 73, 501, 4051]

    @given(g=task_graphs(min_tasks=1, max_tasks=6))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_graphs(self, g):
        self._check(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_pdgs(self, seed):
        g = generate_pdg(
            np.random.default_rng(seed),
            n_tasks=3 + seed % 4,
            band=seed % 5,
            anchor=2,
            weight_range=(20, 100),
        )
        self._check(g)


class TestETF:
    def test_valid_on_zoo(self, paper_example, diamond, chain5, wide_fork):
        for g in (paper_example, diamond, chain5, wide_fork):
            s = ETFScheduler().schedule(g)
            s.validate(g)

    def test_earliest_pair_wins(self):
        """ETF picks the globally earliest-starting ready task."""
        g = TaskGraph()
        g.add_task("late", 10)  # ready at 0 but let's give it a pred
        g.add_task("early", 5)
        s = ETFScheduler().schedule(g)
        assert s.start("late") == 0.0
        assert s.start("early") == 0.0

    def test_keeps_heavy_comm_local(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 1000)
        s = ETFScheduler().schedule(g)
        assert s.processor_of("a") == s.processor_of("b")

    def test_competitive_with_mh(self, wide_fork):
        from repro import MHScheduler

        etf = ETFScheduler().schedule(wide_fork)
        mh = MHScheduler().schedule(wide_fork)
        # dynamic priorities should not be drastically worse here
        assert etf.makespan <= mh.makespan * 1.5 + 1e-9
