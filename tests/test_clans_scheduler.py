"""Tests for the CLANS scheduler (appendix A.5, Figures 15–16)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClansScheduler, TaskGraph
from repro.adversarial.store import build_base_graph
from repro.clans import ClanKind
from repro.experiments.advbench import BASE_SPEC
from repro.schedulers.clans_sched import (
    GroupDecision,
    _Quotient,
    _serial_decision,
)

from conftest import RecordingClans, hunt_graphs, task_graphs

HUNT = hunt_graphs()


class TestPaperWorkedExample:
    """Figure 16: the example completes in parallel time 130 on 2 procs."""

    def test_parallel_time_130(self, paper_example):
        sched = ClansScheduler()
        s = sched.schedule(paper_example)
        assert s.makespan == pytest.approx(130.0)
        assert s.n_processors == 2

    def test_node_2_runs_apart_from_c1(self, paper_example):
        """The decision at C3 parallelizes C2: node 2 executes separately
        from nodes 3 and 4 (paper's Figure 16 C)."""
        s = ClansScheduler().schedule(paper_example)
        assert s.processor_of(2) != s.processor_of(3)
        assert s.processor_of(3) == s.processor_of(4)
        # the linear context (1, C1, 5) shares the local processor
        assert s.processor_of(1) == s.processor_of(3) == s.processor_of(5)

    def test_tree_exposed(self, paper_example):
        sched = ClansScheduler()
        sched.schedule(paper_example)
        assert sched.last_tree is not None
        assert sched.last_tree.kind is ClanKind.LINEAR
        assert not sched.last_fallback


class TestSpeedupCheck:
    def test_serializes_under_heavy_comm(self, two_sources_join):
        """With comm far above work, CLANS must fold to one processor."""
        s = ClansScheduler().schedule(two_sources_join)
        assert s.n_processors == 1
        assert s.makespan == two_sources_join.serial_time()

    def test_parallelizes_under_light_comm(self, wide_fork):
        s = ClansScheduler().schedule(wide_fork)
        assert s.n_processors > 1
        assert s.makespan < wide_fork.serial_time()

    def test_no_check_can_retard(self, two_sources_join):
        unchecked = ClansScheduler(speedup_check=False)
        s = unchecked.schedule(two_sources_join)
        s.validate(two_sources_join)
        assert s.makespan > two_sources_join.serial_time()

    @given(g=task_graphs(min_tasks=2, max_tasks=12, max_comm=300))
    @settings(max_examples=60, deadline=None)
    def test_never_retards_property(self, g):
        sched = ClansScheduler()
        s = sched.schedule(g)
        s.validate(g)
        assert s.speedup(g) >= 1.0 - 1e-9

    def test_fallback_flag_consistency(self, two_sources_join, wide_fork):
        sched = ClansScheduler()
        sched.schedule(wide_fork)
        assert sched.last_fallback in (False, True)
        # a graph the estimates handle well must not need the macro fallback
        sched.schedule(two_sources_join)
        # serialization here comes from the local decision, not the fallback
        assert not sched.last_fallback


class TestDecisions:
    def test_independent_root_always_parallelized_when_free(self):
        """Disjoint components have zero communication: parallelize."""
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 10)
        g.add_edge(0, 1, 5)
        g.add_edge(2, 3, 5)
        s = ClansScheduler().schedule(g)
        assert s.n_processors == 2
        assert s.makespan == pytest.approx(20.0)

    def test_unbalanced_independent_children_grouped(self):
        """Three parallel branches, one heavy: light branches share."""
        g = TaskGraph()
        g.add_task("f", 1)
        g.add_task("j", 1)
        for name, w in [("heavy", 100), ("l1", 10), ("l2", 10)]:
            g.add_task(name, w)
            g.add_edge("f", name, 1)
            g.add_edge(name, "j", 1)
        s = ClansScheduler().schedule(g)
        s.validate(g)
        # heavy branch bounds the makespan; light ones must not extend it
        assert s.makespan <= 1 + 100 + 1 + 2 + 2  # f + heavy + j + comms

    def test_primitive_graph_scheduled(self):
        """The N-poset (primitive root) must still schedule validly."""
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 10)
        g.add_edge(0, 2, 2)
        g.add_edge(1, 2, 2)
        g.add_edge(1, 3, 2)
        sched = ClansScheduler()
        s = sched.schedule(g)
        s.validate(g)
        assert sched.last_tree.kind is ClanKind.PRIMITIVE
        assert s.makespan <= g.serial_time()

    def test_primitive_exploits_parallelism(self):
        """A primitive quotient with cheap comm should still go parallel."""
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 100)
        g.add_edge(0, 2, 1)
        g.add_edge(1, 2, 1)
        g.add_edge(1, 3, 1)
        s = ClansScheduler().schedule(g)
        # 0 and 1 can overlap; best is about 2 * 100 + small comm
        assert s.makespan < 350
        assert s.n_processors >= 2


# ----------------------------------------------------------------------
# quotient mini-schedule: the pruned scan against the exhaustive one
# ----------------------------------------------------------------------
def _reference_mini_schedule(q: _Quotient, k: int) -> GroupDecision:
    """The exhaustive list schedule: b-levels recomputed, every ready child
    tried on every one of the ``k`` processors, every predecessor's message
    re-read for each pair."""
    n = len(q.costs)
    blevel = [0.0] * n
    indeg_out = [len(q.succ[i]) for i in range(n)]
    stack = [i for i in range(n) if indeg_out[i] == 0]
    while stack:
        i = stack.pop()
        blevel[i] = q.costs[i] + max((blevel[j] for j in q.succ[i]), default=0.0)
        for p in q.pred[i]:
            indeg_out[p] -= 1
            if indeg_out[p] == 0:
                stack.append(p)

    proc_free = [0.0] * k
    proc_of = [-1] * n
    finish = [0.0] * n
    groups: list[list[int]] = [[] for _ in range(k)]
    waiting = [len(q.pred[i]) for i in range(n)]
    ready = {i for i in range(n) if waiting[i] == 0}
    worst = 0.0
    while ready:
        best_key = None
        for i in ready:
            for p in range(k):
                start = proc_free[p]
                if p != 0:
                    start = max(start, q.comm_in[i])
                for j, w in q.pred[i].items():
                    arrival = finish[j] + (w if proc_of[j] != p else 0.0)
                    if arrival > start:
                        start = arrival
                key = (start, -blevel[i], p, i)
                if best_key is None or key < best_key:
                    best_key = key
        start, _, p, i = best_key
        proc_of[i] = p
        finish[i] = start + q.costs[i]
        proc_free[p] = finish[i]
        groups[p].append(i)
        worst = max(worst, finish[i] + (q.comm_out[i] if p != 0 else 0.0))
        ready.remove(i)
        for j in q.succ[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.add(j)
    return GroupDecision([g for g in groups if g], worst)


def _reference_decide(q: _Quotient, speedup_check: bool = True) -> GroupDecision:
    """The k scan without the idle-processor early exit."""
    n = len(q.costs)
    if not speedup_check:
        return _reference_mini_schedule(q, n)
    best = _reference_mini_schedule(q, 1)
    stale = 0
    for k in range(2, n):
        cand = _reference_mini_schedule(q, k)
        if cand.cost < best.cost - 1e-12:
            best = cand
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
    if n > 1:
        cand = _reference_mini_schedule(q, n)
        if cand.cost < best.cost - 1e-12:
            best = cand
    return best


def _same(got: GroupDecision, ref: GroupDecision) -> bool:
    return got.groups == ref.groups and got.cost.hex() == ref.cost.hex()


#: A handful of values, so costs, messages and b-levels tie often.
_TIED = st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0])
_ANY = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def quotients(draw, max_children: int = 9, wide: int = 16) -> _Quotient:
    """Quotient DAGs: antichains, chains, random DAGs and fan-ins (sources
    feeding the other children); tied or spread costs and messages,
    optionally all-zero costs or all-zero messages.

    About half have more than ``max_children`` children (up to ``wide``),
    so the k scan passes 5 processors, and in a fan-in a child's
    predecessors sit on many processors."""
    n = draw(st.integers(1, max_children) | st.integers(max_children + 1, wide))
    values = draw(st.sampled_from([_TIED, _ANY]))
    zero = st.just(0.0)
    cost = zero if draw(st.booleans()) and draw(st.booleans()) else values
    message = zero if draw(st.booleans()) and draw(st.booleans()) else values
    shape = draw(st.sampled_from(["antichain", "chain", "dag", "fan-in"]))
    if shape == "antichain":
        edges = []
    elif shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "fan-in":
        r = draw(st.integers(1, max(1, n - 1)))
        edges = [
            (i, j) for j in range(r, n) for i in range(r) if draw(st.booleans())
        ]
    else:
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
        ]
    succ: list[dict[int, float]] = [{} for _ in range(n)]
    pred: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j in edges:
        w = draw(message)
        succ[i][j] = w
        pred[j][i] = w
    return _Quotient(
        costs=[draw(cost) for _ in range(n)],
        comm_in=[draw(message) for _ in range(n)],
        comm_out=[draw(message) for _ in range(n)],
        succ=succ,
        pred=pred,
    )


class TestMiniScheduleMatchesExhaustiveScan:
    @given(q=quotients())
    @settings(max_examples=300, deadline=None)
    def test_every_k(self, q):
        for k in range(1, len(q.costs) + 1):
            got = ClansScheduler._mini_schedule(q, k)
            assert _same(got, _reference_mini_schedule(q, k)), k

    @given(q=quotients())
    @settings(max_examples=500, deadline=None)
    def test_serial_shortcut(self, q):
        """k = 1 by the (-blevel, child) heap equals the exhaustive scan on
        one processor: same order, same float cost."""
        assert _same(_serial_decision(q), _reference_mini_schedule(q, 1))

    @given(q=quotients(), check=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_decide(self, q, check):
        got = ClansScheduler(speedup_check=check)._decide(q)
        assert _same(got, _reference_decide(q, check))

    def test_primitive_heavy_graph(self):
        """The advbench base graph's clans, its primitive clan of 24
        children included: every k and every decision."""
        g = build_base_graph(BASE_SPEC)
        sched = RecordingClans()
        sched.schedule(g)
        widest = 0
        for q, decision in sched.decided:
            widest = max(widest, len(q.costs))
            for k in range(1, len(q.costs) + 1):
                got = ClansScheduler._mini_schedule(q, k)
                assert _same(got, _reference_mini_schedule(q, k)), k
            assert _same(decision, _reference_decide(q))
        assert widest >= 20

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_hunt_corpus_decisions(self, g, check):
        """Every clan's decision on the hunt corpus
        (``conftest.hunt_graphs``) equals the exhaustive scan's."""
        sched = RecordingClans(speedup_check=check)
        sched.schedule(g)
        assert sched.decided
        for q, decision in sched.decided:
            assert _same(decision, _reference_decide(q, check))
