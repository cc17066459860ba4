"""Tests for MCP (appendix A.2, Figures 9–10)."""

from __future__ import annotations

import pytest

from repro import MCPScheduler, TaskGraph
from repro.core.analysis import alap_times


class TestPriorityOrder:
    def test_order_is_topological(self, paper_example, diamond, wide_fork):
        for g in (paper_example, diamond, wide_fork):
            order = MCPScheduler.priority_order(g)
            pos = {t: i for i, t in enumerate(order)}
            for u, v in g.edges():
                assert pos[u] < pos[v]

    def test_most_critical_first(self, paper_example):
        """The head of the list is the task with the smallest ALAP time —
        the start of the critical path."""
        order = MCPScheduler.priority_order(paper_example)
        alap = alap_times(paper_example)
        assert order[0] == min(paper_example.tasks(), key=lambda t: alap[t])
        assert order[0] == 1

    def test_descendant_lists_break_ties(self):
        """Two tasks with equal ALAP: the one whose descendants are more
        urgent (lexicographically smaller T_L list) goes first."""
        g = TaskGraph()
        g.add_task("root", 10)
        # two symmetric branches, but y's child is heavier -> more urgent
        for branch, child_w in (("x", 10), ("y", 40)):
            g.add_task(branch, 10)
            g.add_task(branch + "c", child_w)
            g.add_edge("root", branch, 0)
            g.add_edge(branch, branch + "c", 0)
        alap = alap_times(g)
        order = MCPScheduler.priority_order(g)
        assert alap["y"] < alap["x"]
        assert order.index("y") < order.index("x")


class TestTopologicalByConstruction:
    """MCP takes its keys through a ready set, so ties and rounding in the
    ALAP times cannot put a task before its predecessor."""

    @staticmethod
    def _check(g):
        order = MCPScheduler.priority_order(g)
        pos = {t: i for i, t in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in g.edges())
        for cap in (None, 2):
            MCPScheduler(max_processors=cap).schedule(g).validate(g)

    def test_zero_weight_chain(self):
        """b and c tie on ALAP time 1, and c's key (1,) sorts before b's
        (1, 1): a sort by key alone took c before b."""
        g = TaskGraph()
        for t, w in (("a", 1), ("b", 0), ("c", 0)):
            g.add_task(t, w)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 0)
        self._check(g)
        assert MCPScheduler.priority_order(g) == ["a", "b", "c"]

    def test_tiny_chain_beside_a_huge_one(self):
        """Beside a 5e13 critical path, 1e-3 steps vanish in the ALAP
        times' rounding, so the tiny chain's tasks tie; its later tasks
        sorted first and started before their inputs arrived."""
        g = TaskGraph()
        for k in range(50):
            g.add_task(("big", k), 1e12)
            if k:
                g.add_edge(("big", k - 1), ("big", k), 0.0)
        for k in range(5):
            g.add_task(("tiny", k), 1e-3)
            if k:
                g.add_edge(("tiny", k - 1), ("tiny", k), 1e-3)
        alap = alap_times(g)
        assert alap[("tiny", 3)] == alap[("tiny", 4)]  # the rounding tie
        self._check(g)


class TestPlacement:
    def test_chain_single_processor(self, chain5):
        s = MCPScheduler().schedule(chain5)
        assert s.n_processors == 1

    def test_spreads_cheap_parallelism(self, wide_fork):
        s = MCPScheduler().schedule(wide_fork)
        assert s.n_processors > 1
        assert s.makespan < wide_fork.serial_time()

    def test_independent_sources_spread_then_pay(self, two_sources_join):
        """EST of a fresh processor is 0 for the second source — MCP
        spreads, and the join pays heavy communication (the paper's low-G
        retardation mechanism)."""
        s = MCPScheduler().schedule(two_sources_join)
        assert s.processor_of("s1") != s.processor_of("s2")
        assert s.makespan > two_sources_join.serial_time()

    def test_insertion_fills_idle_slot(self):
        """A later-priority short task must slot into an idle gap.

        crit chain: a(10) -> b(10) with comm 0 placed on P0; an unrelated
        task z (weight 5) arrives later in priority order: with insertion
        it can slide into P0's gap if one exists, else uses a fresh proc —
        but it must never delay b.
        """
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("gap", 30)  # forces b to wait: a -> gap edge comm heavy
        g.add_task("b", 10)
        g.add_task("z", 5)
        g.add_edge("a", "gap", 0)
        g.add_edge("gap", "b", 25)
        g.add_edge("a", "z", 25)
        ins = MCPScheduler(insertion=True).schedule(g)
        app = MCPScheduler(insertion=False).schedule(g)
        ins.validate(g)
        app.validate(g)
        assert ins.makespan <= app.makespan + 1e-9

    def test_insertion_never_overlaps(self, paper_example, wide_fork):
        for g in (paper_example, wide_fork):
            MCPScheduler(insertion=True).schedule(g).validate(g)


class TestPaperExample:
    def test_valid_and_competitive(self, paper_example):
        s = MCPScheduler().schedule(paper_example)
        s.validate(paper_example)
        assert s.makespan <= 150.0  # never worse than serial here
