"""Seeded equivalence sweep: indexed kernels vs the dict implementations.

The kernels (``repro.core.kernels``) promise *bit-identical* results to the
dict-based reference paths — same floats, same tie-breaks, same dict
ordering.  These tests sweep seeded random PDGs across the paper's testbed
axes (granularity band, anchor, weight range) plus degenerate shapes
(single node, chain, fork-join, zero-cost edges) and assert exact equality
between the two backends at every layer: levels, critical path, the
simulator, the rewritten schedulers, and the clan decomposition.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph
from repro.adversarial.env import PerturbationEnv
from repro.adversarial.store import build_base_graph
from repro.clans import ClanKind
from repro.clans.decomposition import decompose, is_clan
from repro.core.analysis import (
    alap_times,
    b_levels,
    critical_path,
    hu_levels,
    t_levels,
)
from repro.core.exceptions import ScheduleError
from repro.core.kernels import (
    GraphIndex,
    b_levels_arr,
    graph_index,
    kernels_enabled,
    t_levels_arr,
    use_kernels,
)
from repro.core.simulator import simulate_clustering, simulate_ordered
from repro.experiments.advbench import BASE_SPEC
from repro.generation.random_dag import generate_pdg
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.schedulers import get_scheduler

from conftest import task_graphs

SEED = 19940815
REWRITTEN = ["DSC", "MCP", "MH", "HU", "ETF", "HLFET", "CLANS"]


# ----------------------------------------------------------------------
# graph corpus: seeded testbed sweep + edge-case shapes
# ----------------------------------------------------------------------
def _testbed_graphs() -> list[tuple[str, TaskGraph]]:
    graphs = []
    for band in range(5):
        for anchor in (2, 5):
            for wr in [(1, 10), (3, 200)]:
                rng = np.random.default_rng(SEED + band * 100 + anchor * 10 + wr[1])
                g = generate_pdg(
                    rng, n_tasks=40, band=band, anchor=anchor, weight_range=wr
                )
                graphs.append((f"band{band}-a{anchor}-w{wr[1]}", g))
    return graphs


def _edge_case_graphs() -> list[tuple[str, TaskGraph]]:
    single = TaskGraph()
    single.add_task("only", 7)

    chain = TaskGraph()
    for i in range(6):
        chain.add_task(i, 5 + i)
        if i:
            chain.add_edge(i - 1, i, 2)

    fork_join = TaskGraph()
    fork_join.add_task("src", 4)
    fork_join.add_task("sink", 4)
    for i in range(5):
        fork_join.add_task(i, 10)
        fork_join.add_edge("src", i, 3)
        fork_join.add_edge(i, "sink", 3)

    zero_comm = TaskGraph()
    for t in "abcd":
        zero_comm.add_task(t, 10)
    zero_comm.add_edge("a", "b", 0)
    zero_comm.add_edge("a", "c", 5)
    zero_comm.add_edge("b", "d", 0)
    zero_comm.add_edge("c", "d", 0)

    return [
        ("single", single),
        ("chain", chain),
        ("fork-join", fork_join),
        ("zero-cost-edges", zero_comm),
    ]


CORPUS = _testbed_graphs() + _edge_case_graphs()
IDS = [name for name, _ in CORPUS]
GRAPHS = [g for _, g in CORPUS]


# ----------------------------------------------------------------------
# GraphIndex structure
# ----------------------------------------------------------------------
class TestGraphIndex:
    def test_index_mirrors_graph(self):
        g = GRAPHS[0]
        gi = GraphIndex(g)
        assert gi.n == g.n_tasks
        assert gi.tasks == list(g.tasks())
        assert gi.m == sum(len(g.out_edges(t)) for t in g.tasks())
        for t in g.tasks():
            i = gi.index_of[t]
            assert gi.weights[i] == g.weight(t)
            succ = {gi.tasks[j]: w for j, w in gi.succ_rows[i]}
            assert succ == dict(g.out_edges(t))
            pred = {gi.tasks[j]: w for j, w in gi.pred_rows[i]}
            assert pred == dict(g.in_edges(t))

    def test_index_cached_by_mutation_version(self):
        g = GRAPHS[0].copy()
        gi1 = graph_index(g)
        assert graph_index(g) is gi1
        g.add_task("fresh", 1.0)
        gi2 = graph_index(g)
        assert gi2 is not gi1
        assert gi2.n == gi1.n + 1

    def test_use_kernels_toggle_nests_and_restores(self):
        initial = kernels_enabled()  # REPRO_KERNELS may override the default
        with use_kernels(True):
            assert kernels_enabled()
            with use_kernels(False):
                assert not kernels_enabled()
                with use_kernels(True):
                    assert kernels_enabled()
                assert not kernels_enabled()
            assert kernels_enabled()
        assert kernels_enabled() == initial


# ----------------------------------------------------------------------
# levels / critical path
# ----------------------------------------------------------------------
class TestLevelEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    @pytest.mark.parametrize("comm", [True, False])
    def test_levels_exactly_equal(self, g, comm):
        # memoized per graph, so compute each backend on its own copy
        with use_kernels(False):
            ref = g.copy()
            tl_d = t_levels(ref, communication=comm)
            bl_d = b_levels(ref, communication=comm)
            alap_d = alap_times(ref, communication=comm)
        with use_kernels(True):
            ker = g.copy()
            tl_k = t_levels(ker, communication=comm)
            bl_k = b_levels(ker, communication=comm)
            alap_k = alap_times(ker, communication=comm)
        # == on dicts ignores order; the kernels promise bit-equal floats
        # AND identical insertion order (callers iterate these dicts).
        assert tl_d == tl_k and list(tl_d) == list(tl_k)
        assert bl_d == bl_k and list(bl_d) == list(bl_k)
        assert alap_d == alap_k and list(alap_d) == list(alap_k)

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_hu_levels_and_critical_path(self, g):
        with use_kernels(False):
            ref = g.copy()
            hu_d = hu_levels(ref)
            cp_d = critical_path(ref, communication=True)
            cpn_d = critical_path(ref, communication=False)
        with use_kernels(True):
            ker = g.copy()
            hu_k = hu_levels(ker)
            cp_k = critical_path(ker, communication=True)
            cpn_k = critical_path(ker, communication=False)
        assert hu_d == hu_k and list(hu_d) == list(hu_k)
        assert cp_d == cp_k
        assert cpn_d == cpn_k

    def test_arr_matches_dict_values(self):
        g = GRAPHS[0]
        gi = graph_index(g)
        tl = t_levels_arr(g, communication=True)
        bl = b_levels_arr(g, communication=True)
        with use_kernels(False):
            tl_d = t_levels(g.copy(), communication=True)
            bl_d = b_levels(g.copy(), communication=True)
        for t in g.tasks():
            i = gi.index_of[t]
            assert tl[i] == tl_d[t]
            assert bl[i] == bl_d[t]


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
def _chain_split_clusters(g: TaskGraph, k: int = 4) -> list[list]:
    order = list(g.topological_order())
    return [order[i::k] for i in range(k) if order[i::k]]


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_ordered_identical(self, g):
        clusters = _chain_split_clusters(g)
        with use_kernels(False):
            ref = simulate_ordered(g.copy(), clusters)
        with use_kernels(True):
            ker = simulate_ordered(g.copy(), clusters)
        assert ref.to_dict() == ker.to_dict()

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_clustering_identical(self, g):
        assignment = {t: i % 3 for i, t in enumerate(g.tasks())}
        with use_kernels(False):
            ref = simulate_clustering(g.copy(), assignment)
        with use_kernels(True):
            ker = simulate_clustering(g.copy(), assignment)
        assert ref.to_dict() == ker.to_dict()

    @pytest.mark.parametrize("flag", [True, False])
    def test_validation_hoisted_behind_flag(self, flag):
        g = GRAPHS[0]
        tasks = list(g.tasks())
        duplicated = [tasks, [tasks[0]]]
        with use_kernels(flag):
            with pytest.raises(ScheduleError, match="more than one cluster"):
                simulate_ordered(g, duplicated)
            with pytest.raises(ScheduleError, match="not clustered"):
                simulate_ordered(g, [tasks[:-1]])

    @pytest.mark.parametrize("flag", [True, False])
    def test_deadlocking_order_raises_in_both_modes(self, flag):
        g = TaskGraph()
        for t in "ab":
            g.add_task(t, 1)
        g.add_edge("a", "b", 1)
        with use_kernels(flag):
            with pytest.raises(ScheduleError, match="deadlock"):
                simulate_ordered(g, [["b", "a"]])


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", REWRITTEN)
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_schedules_placement_identical(self, name, g):
        with use_kernels(False):
            ref = get_scheduler(name).schedule(g).to_dict()
        with use_kernels(True):
            ker = get_scheduler(name).schedule(g).to_dict()
        assert ref == ker


# ----------------------------------------------------------------------
# clan decomposition (bitset backend vs numpy backend)
# ----------------------------------------------------------------------
def _tree_shape(node):
    if node.is_leaf:
        return ("leaf", node.task)
    return (node.kind.name, [_tree_shape(c) for c in node.children])


def _hunt_graphs() -> list[tuple[str, TaskGraph]]:
    """The advbench hunt's base graph and seeded neighborhoods around it.

    Every one has 48 tasks and a primitive clan of 22-27 children: the
    shape the adversarial hunt decomposes thousands of times, and the one
    where primitive-clan closures do the most work.
    """
    base = build_base_graph(BASE_SPEC)
    graphs = [("advbench-base", base)]
    for seed in range(4):
        env = PerturbationEnv(base.copy(), random.Random(seed))
        for step in range(2):
            cands = env.neighborhood(4)
            graphs += [
                (f"hunt-s{seed}-{step}-{i}", g) for i, (_, g) in enumerate(cands)
            ]
            env.apply(cands[-1][0])
    return graphs


HUNT = _hunt_graphs()


def _both_backends(g):
    with use_kernels(False):
        ref = decompose(g)
    with use_kernels(True):
        ker = decompose(g)
    return ref, ker


class TestDecompositionEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_trees_identical(self, g):
        ref, ker = _both_backends(g)
        assert _tree_shape(ref) == _tree_shape(ker)

    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_trees_identical_on_primitive_heavy_graphs(self, g):
        ref, ker = _both_backends(g)
        assert _tree_shape(ref) == _tree_shape(ker)

    def test_hunt_corpus_is_primitive_heavy(self):
        for name, g in HUNT:
            widest = max(
                (len(n.children) for n in decompose(g).walk()
                 if not n.is_leaf and n.kind is ClanKind.PRIMITIVE),
                default=0,
            )
            assert widest >= 20, name

    @given(
        g=st.sampled_from([0.2, 0.35, 0.6]).flatmap(
            lambda bias: task_graphs(max_tasks=16, connected_bias=bias)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_backends_agree_and_every_node_is_a_clan(self, g):
        ref, ker = _both_backends(g)
        assert _tree_shape(ref) == _tree_shape(ker)
        for node in ker.walk():
            if not node.is_leaf:
                assert is_clan(g, node.members)


# ----------------------------------------------------------------------
# observability wiring
# ----------------------------------------------------------------------
class TestKernelObservability:
    def test_compile_timer_and_cache_counters(self):
        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        with use_registry(sandbox):
            graph_index(g)
            graph_index(g)
            graph_index(g)
        counters = sandbox.counters()
        assert counters.get("kernels.cache.misses") == 1
        assert counters.get("kernels.cache.hits") == 2
        stats = sandbox.timer_stats("kernels.compile")
        assert stats.count == 1


# ----------------------------------------------------------------------
# concurrent access (the daemon compiles indexes from executor threads)
# ----------------------------------------------------------------------
class TestConcurrentIndexAccess:
    def test_one_compile_per_graph_version_under_contention(self):
        import threading

        from repro.core.kernels import discard_index

        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        results: list[GraphIndex] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()  # maximize overlap on the memoization miss path
            results.append(graph_index(g))

        with use_registry(sandbox):
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        counters = sandbox.counters()
        assert counters.get("kernels.cache.misses") == 1
        assert counters.get("kernels.cache.hits") == 7
        assert sandbox.timer_stats("kernels.compile").count == 1
        # no torn reads: every thread saw the one compiled index
        assert len(results) == 8
        assert all(idx is results[0] for idx in results)
        discard_index(g)

    def test_mutation_then_concurrent_reads_stay_consistent(self):
        import threading

        g = GRAPHS[0].copy()
        first = graph_index(g)
        g.add_task("extra", 1.0)  # bumps the version, invalidating the memo
        seen: list[GraphIndex] = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            idx = graph_index(g)
            assert idx.n == g.n_tasks  # never the stale pre-mutation index
            seen.append(idx)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 6
        assert all(idx is seen[0] for idx in seen)
        assert seen[0] is not first

    def test_discard_index_forces_recompile(self):
        from repro.core.kernels import discard_index

        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        with use_registry(sandbox):
            a = graph_index(g)
            discard_index(g)
            b = graph_index(g)
        assert a is not b
        assert sandbox.counters().get("kernels.cache.misses") == 2
