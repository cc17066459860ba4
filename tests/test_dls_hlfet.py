"""Tests for the DLS and HLFET extension schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph
from repro.core.kernels import IndexedPool, b_levels_arr, graph_index
from repro.schedulers import get_scheduler
from repro.schedulers.dls import DLSScheduler

from conftest import hunt_graphs, task_graphs, tie_graphs

HUNT = hunt_graphs()


class TestDLS:
    def test_valid_on_zoo(self, paper_example, diamond, chain5, wide_fork):
        sched = get_scheduler("DLS")
        for g in (paper_example, diamond, chain5, wide_fork):
            sched.schedule(g).validate(g)

    def test_keeps_heavy_comm_local(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 500)
        s = get_scheduler("DLS").schedule(g)
        assert s.processor_of("a") == s.processor_of("b")

    def test_prefers_critical_task(self):
        """DLS weighs static level against start time: between two ready
        tasks with equal start options, the higher-level one goes first."""
        g = TaskGraph()
        g.add_task("crit", 10)
        g.add_task("critchild", 50)
        g.add_task("minor", 10)
        g.add_edge("crit", "critchild", 1)
        s = get_scheduler("DLS").schedule(g)
        assert s.start("crit") == 0.0

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_always_valid(self, g):
        get_scheduler("DLS").schedule(g).validate(g)


def _reference_dls(graph, max_processors):
    """DLS by its definition: every ready task on every candidate
    processor, each start from a walk of the task's in-edges."""
    gi = graph_index(graph)
    static_level = b_levels_arr(graph, communication=False)
    pool = IndexedPool(gi, max_processors=max_processors)
    n_sched_preds = [0] * gi.n
    ready = {i for i in range(gi.n) if gi.in_degree[i] == 0}
    while ready:
        n_cand = pool.n_processors + (1 if pool.can_grow else 0)
        best = None
        for i in ready:
            for proc in range(n_cand):
                start = pool.est_append(i, proc)
                key = (-(static_level[i] - start), start, proc, i)
                if best is None or key < best[0]:
                    best = (key, i, proc, start)
        _, i, proc, start = best
        pool.place(i, proc, start)
        ready.remove(i)
        for j, _ in gi.succ_rows[i]:
            n_sched_preds[j] += 1
            if n_sched_preds[j] == gi.in_degree[j]:
                ready.add(j)
    return pool.schedule


def _placements(schedule):
    """Placement rows with exact (float-hex) times."""
    return [
        (repr(t), p, s.hex(), f.hex())
        for t, p, s, f in schedule.to_dict()["placements"]
    ]


class TestDLSMatchesEdgeWalk:
    """Arrival facts computed once per ready task give the same schedule,
    bit for bit, as re-walking the in-edges for every candidate."""

    @given(g=tie_graphs(), max_processors=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_tie_graphs(self, g, max_processors):
        got = DLSScheduler(max_processors=max_processors).schedule(g)
        assert _placements(got) == _placements(_reference_dls(g, max_processors))

    @pytest.mark.parametrize("max_processors", [None, 2])
    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_hunt_corpus(self, g, max_processors):
        got = DLSScheduler(max_processors=max_processors).schedule(g)
        assert _placements(got) == _placements(_reference_dls(g, max_processors))


class TestHLFET:
    def test_valid_on_zoo(self, paper_example, diamond, chain5, wide_fork):
        sched = get_scheduler("HLFET")
        for g in (paper_example, diamond, chain5, wide_fork):
            sched.schedule(g).validate(g)

    def test_sits_between_hu_and_mh(self, paper_example, chain5, two_sources_join):
        """HLFET = HU's priority + MH's placement.  With MH's placement
        rule it must avoid HU's pathologies: never pay communication that
        staying local would avoid."""
        for g in (paper_example, chain5, two_sources_join):
            hlfet = get_scheduler("HLFET").schedule(g)
            hu = get_scheduler("HU").schedule(g)
            assert hlfet.makespan <= hu.makespan + 1e-9

    def test_chain_single_processor(self, chain5):
        s = get_scheduler("HLFET").schedule(chain5)
        assert s.n_processors == 1

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=30, deadline=None)
    def test_always_valid(self, g):
        get_scheduler("HLFET").schedule(g).validate(g)
