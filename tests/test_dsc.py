"""Tests for DSC (appendix A.1, Figures 7–8)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSCScheduler, TaskGraph
from repro.core.kernels import b_levels_arr, graph_index
from repro.obs.metrics import get_registry

from conftest import hunt_graphs, task_graphs, tie_graphs

HUNT = hunt_graphs()


class TestClusteringBehaviour:
    def test_chain_stays_on_one_cluster(self, chain5):
        """Every zeroing along a chain reduces the start time: one cluster."""
        s = DSCScheduler().schedule(chain5)
        assert s.n_processors == 1
        assert s.makespan == chain5.serial_time()

    def test_zeroing_accepted_when_it_helps(self):
        """a->b with heavy comm: b must merge into a's cluster."""
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 100)
        s = DSCScheduler().schedule(g)
        assert s.processor_of("a") == s.processor_of("b")
        assert s.makespan == 20.0

    def test_fork_with_light_comm_splits(self):
        """Cheap messages, big tasks: the fork's branches go parallel."""
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 100)
        g.add_task("c", 100)
        g.add_edge("a", "b", 1)
        g.add_edge("a", "c", 1)
        s = DSCScheduler().schedule(g)
        assert s.processor_of("b") != s.processor_of("c")
        assert s.makespan == pytest.approx(111.0)

    def test_fork_with_heavy_comm_serializes(self):
        """Messages dominate: both branches pile onto a's cluster."""
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_task("c", 10)
        g.add_edge("a", "b", 500)
        g.add_edge("a", "c", 500)
        s = DSCScheduler().schedule(g)
        assert s.n_processors == 1
        assert s.makespan == 30.0

    def test_independent_sources_never_merge(self, two_sources_join):
        """DSC only zeroes edges — unrelated sources stay apart, so the
        join pays cross-cluster communication (the low-G failure mode)."""
        s = DSCScheduler().schedule(two_sources_join)
        assert s.processor_of("s1") != s.processor_of("s2")
        assert s.makespan > two_sources_join.serial_time()  # retardation

    def test_join_merges_into_latest_arriving_cluster(self):
        g = TaskGraph()
        g.add_task("a", 50)
        g.add_task("b", 10)
        g.add_task("j", 10)
        g.add_edge("a", "j", 20)
        g.add_edge("b", "j", 20)
        s = DSCScheduler().schedule(g)
        # joining a's cluster: start max(50, 10+20) = 50; b's: max(10, 70) = 70
        assert s.processor_of("j") == s.processor_of("a")
        assert s.start("j") == 50.0


class TestPaperExample:
    def test_valid_and_competitive(self, paper_example):
        s = DSCScheduler().schedule(paper_example)
        s.validate(paper_example)
        assert s.makespan <= 143.0  # at least as good as fully parallel

    def test_dominant_sequence_first(self, paper_example):
        """Node 1 (source, on the dominant sequence) is scheduled at 0."""
        s = DSCScheduler().schedule(paper_example)
        assert s.start(1) == 0.0


class TestCT2Ablation:
    def test_ct2_flag_exists_and_schedules(self, paper_example, wide_fork):
        for g in (paper_example, wide_fork):
            a = DSCScheduler(use_ct2=True).schedule(g)
            b = DSCScheduler(use_ct2=False).schedule(g)
            a.validate(g)
            b.validate(g)

    def test_ct2_protects_partial_free_node(self):
        """Merging a low-priority side task must not squat on the cluster a
        high-priority partial-free task needs.

        Graph: src feeds crit (heavy path) and side (light path); crit is
        partial-free while side is free because crit also waits on src2.
        """
        g = TaskGraph()
        g.add_task("src", 10)
        g.add_task("src2", 30)
        g.add_task("side", 5)
        g.add_task("crit", 100)
        g.add_edge("src", "side", 4)
        g.add_edge("src", "crit", 4)
        g.add_edge("src2", "crit", 4)
        with_ct2 = DSCScheduler(use_ct2=True).schedule(g)
        with_ct2.validate(g)
        no_ct2 = DSCScheduler(use_ct2=False).schedule(g)
        no_ct2.validate(g)
        assert with_ct2.makespan <= no_ct2.makespan + 1e-9


# ----------------------------------------------------------------------
# heap selection and one-pass cluster starts against the full rescans
# ----------------------------------------------------------------------
def _reference_dsc(graph: TaskGraph, use_ct2: bool) -> tuple[list, dict]:
    """DSC by the definition's scans: every iteration rescans all v tasks
    for the top free and the top partial-free task, and re-walks nx's
    in-edges for each predecessor cluster.  Returns the placement rows and
    the ``dsc.*`` counts."""
    gi = graph_index(graph)
    n = gi.n
    level = b_levels_arr(graph, communication=True)
    weights, pred_rows, succ_rows = gi.weights, gi.pred_rows, gi.succ_rows
    indeg = gi.in_degree
    finish = [0.0] * n
    scheduled = [False] * n
    cluster_of = [-1] * n
    cluster_avail: list[float] = []
    rows = []
    n_sched_preds = [0] * n
    startbound = [0.0] * n
    counts = {"dsc.edge_zeroings": 0, "dsc.fresh_clusters": 0, "dsc.ct2_rejections": 0}

    def st_on(c: int, t: int) -> float:
        start = cluster_avail[c]
        for p, w in pred_rows[t]:
            if scheduled[p]:
                arrival = finish[p] + (w if cluster_of[p] != c else 0.0)
                if arrival > start:
                    start = arrival
        return start

    def ct2_ok(ny: int, cluster: int, finish_nx: float) -> bool:
        if not use_ct2:
            return True
        if not any(scheduled[p] and cluster_of[p] == cluster for p, _ in pred_rows[ny]):
            return True
        return finish_nx <= startbound[ny] + 1e-12

    for _ in range(n):
        nx = ny = -1
        nx_key = ny_key = None
        for t in range(n):
            if scheduled[t]:
                continue
            key = (startbound[t] + level[t], -t)
            if n_sched_preds[t] == indeg[t]:
                if nx_key is None or key > nx_key:
                    nx, nx_key = t, key
            elif ny_key is None or key > ny_key:
                ny, ny_key = t, key
        sb = startbound[nx]
        parents = sorted({cluster_of[p] for p, _ in pred_rows[nx] if scheduled[p]})
        target = -1
        if parents:
            best_c = min(parents, key=lambda c: (st_on(c, nx), c))
            st = st_on(best_c, nx)
            ct1 = st <= sb + 1e-12
            if ny_key is None or nx_key[0] >= ny_key[0]:
                if ct1:
                    target = best_c
            elif ct1 and ct2_ok(ny, best_c, st + weights[nx]):
                target = best_c
            elif ct1:
                counts["dsc.ct2_rejections"] += 1
        if target < 0:
            target = len(cluster_avail)
            cluster_avail.append(0.0)
            start = sb
            counts["dsc.fresh_clusters"] += 1
        else:
            start = st_on(target, nx)
            counts["dsc.edge_zeroings"] += 1
        f = start + weights[nx]
        rows.append([gi.tasks[nx], target, start, f])
        finish[nx] = f
        cluster_avail[target] = f
        cluster_of[nx] = target
        scheduled[nx] = True
        for s, c in succ_rows[nx]:
            n_sched_preds[s] += 1
            if f + c > startbound[s]:
                startbound[s] = f + c
    return rows, counts


def _dsc_run(graph: TaskGraph, use_ct2: bool) -> tuple[list, dict]:
    registry = get_registry()
    names = ("dsc.edge_zeroings", "dsc.fresh_clusters", "dsc.ct2_rejections")
    before = {k: registry.counter(k) for k in names}
    schedule = DSCScheduler(use_ct2=use_ct2).schedule(graph)
    counts = {k: registry.counter(k) - before[k] for k in names}
    return [list(p) for p in schedule.to_dict()["placements"]], counts


def _assert_same_as_reference(graph: TaskGraph, use_ct2: bool) -> None:
    got_rows, got_counts = _dsc_run(graph, use_ct2)
    ref_rows, ref_counts = _reference_dsc(graph, use_ct2)
    assert got_rows == ref_rows
    assert [r[2].hex() for r in got_rows] == [r[2].hex() for r in ref_rows]
    assert got_counts == ref_counts


class TestSelectionMatchesFullRescan:
    @given(g=tie_graphs(), use_ct2=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tie_graphs(self, g, use_ct2):
        _assert_same_as_reference(g, use_ct2)

    @given(g=task_graphs(max_tasks=20), use_ct2=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, g, use_ct2):
        _assert_same_as_reference(g, use_ct2)

    @pytest.mark.parametrize("use_ct2", [True, False])
    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_hunt_corpus(self, g, use_ct2):
        _assert_same_as_reference(g, use_ct2)

    @pytest.mark.parametrize("use_ct2", [True, False])
    def test_partial_task_of_equal_priority_leaves_ct1_alone(self, use_ct2):
        """x (free) and y (partial-free) tie at priority 2.5 when x is
        examined.  CT2 guards only a partial-free task of strictly higher
        priority, so x still zeroes a -> x; CT2 would refuse, because x
        occupying a's cluster until 2 delays y past its bound 1.5."""
        g = TaskGraph()
        for t in ("a", "x", "b", "y"):
            g.add_task(t, 1)
        g.add_edge("a", "x", 0.5)
        g.add_edge("a", "y", 0.5)
        g.add_edge("b", "y", 0.0)
        _assert_same_as_reference(g, use_ct2)
        s = DSCScheduler(use_ct2=use_ct2).schedule(g)
        assert s.processor_of("x") == s.processor_of("a")
        assert s.start("x") == 1.0

    def test_ct2_rejections_are_exercised(self):
        """The CT2 branch fires on the hunt corpus, so the comparison
        above covers the lazy heap's top as well as the free heap's."""
        assert sum(_dsc_run(g, True)[1]["dsc.ct2_rejections"] for _, g in HUNT) > 0
