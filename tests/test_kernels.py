"""Seeded checks of the indexed kernels, each against its own definition.

Every computation has one implementation (``repro.core.kernels`` and its
callers), so these tests check outputs against what they must satisfy,
not against a second copy of the code: levels against their defining
recurrences (exactly, float for float) and their iteration order; the
critical path against the b-levels it follows; the simulator and every
rewritten scheduler against the shared timing rule and
``Schedule.validate``.  The clan decomposition is compared with a
test-only numpy reference kept in this file.  Byte-for-byte outputs are
pinned separately by the sha256 digests of ``tests/test_golden.py``.

The graphs sweep seeded random PDGs across the paper's testbed axes
(granularity band, anchor, weight range) plus degenerate shapes (single
node, chain, fork-join, zero-cost edges).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph
from repro.clans import ClanKind
from repro.clans.decomposition import _BitRelations, decompose, is_clan
from repro.clans.parse_tree import ClanNode
from repro.clans.relations import ABOVE, UNRELATED, RelationMatrix
from repro.core import simulator
from repro.core.analysis import (
    alap_times,
    b_levels,
    critical_path,
    critical_path_length,
    hu_levels,
    t_levels,
    validate_levels,
)
from repro.core.exceptions import DecompositionError, ScheduleError
from repro.core.kernels import (
    GraphIndex,
    b_levels_arr,
    graph_index,
    priority_topo_order_idx,
    t_levels_arr,
)
from repro.core.simulator import simulate_clustering, simulate_ordered
from repro.generation.random_dag import generate_pdg
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.schedulers import get_scheduler

from conftest import hunt_graphs, task_graphs

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


# ----------------------------------------------------------------------
# levels / critical path
# ----------------------------------------------------------------------
def _assert_level_recurrences(g: TaskGraph, comm: bool) -> None:
    """t/b-levels and ALAP equal their definitions exactly, in topological
    (t), reverse topological (b) and insertion (ALAP) order."""
    tl = t_levels(g, communication=comm)
    bl = b_levels(g, communication=comm)
    alap = alap_times(g, communication=comm)
    topo = list(g.topological_order())
    assert list(tl) == topo
    assert list(bl) == topo[::-1]
    assert list(alap) == list(g.tasks())
    for t in g.tasks():
        arrive = [
            tl[p] + g.weight(p) + (c if comm else 0.0)
            for p, c in g.in_edges(t).items()
        ]
        assert tl[t] == max([0.0, *arrive]), t
        below = [bl[s] + (c if comm else 0.0) for s, c in g.out_edges(t).items()]
        assert bl[t] == max([0.0, *below]) + g.weight(t), t
    cp = max(bl.values(), default=0.0)
    assert alap == {t: cp - bl[t] for t in g.tasks()}
    if comm:
        validate_levels(g, tl, bl)


class TestLevelEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    @pytest.mark.parametrize("comm", [True, False])
    def test_levels_exactly_equal(self, g, comm):
        _assert_level_recurrences(g.copy(), comm)

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_hu_levels_and_critical_path(self, g):
        hu = hu_levels(g)
        no_comm = b_levels(g, communication=False)
        assert hu == no_comm and list(hu) == list(no_comm)
        for comm in (True, False):
            bl = b_levels(g, communication=comm)
            path = critical_path(g, communication=comm)
            assert g.in_degree(path[0]) == 0 and g.out_degree(path[-1]) == 0
            assert bl[path[0]] == critical_path_length(g, communication=comm)
            # each step follows a successor that realizes the b-level
            for u, v in zip(path, path[1:]):
                c = g.out_edges(u)[v] if comm else 0.0
                assert bl[u] == bl[v] + c + g.weight(u)

    def test_arr_matches_dict_values(self):
        g = GRAPHS[0]
        gi = graph_index(g)
        tl = t_levels_arr(g, communication=True)
        bl = b_levels_arr(g, communication=True)
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


def _processor_orders(schedule) -> list[list]:
    """Each processor's tasks in start order."""
    by_proc: dict[int, list] = {}
    for p in sorted(schedule, key=lambda p: (p.processor, p.start, p.finish)):
        by_proc.setdefault(p.processor, []).append(p.task)
    return [by_proc[q] for q in sorted(by_proc)]


def _assert_timing_rule(g: TaskGraph, schedule) -> None:
    """Every start is exactly the shared model's earliest start (DESIGN.md
    section 2) given the schedule's own processor orders."""
    schedule.validate(g)
    for order in _processor_orders(schedule):
        free = 0.0
        for t in order:
            proc = schedule.processor_of(t)
            start = free
            for p, c in g.in_edges(t).items():
                arrival = schedule.finish(p) + (
                    c if schedule.processor_of(p) != proc else 0.0
                )
                if arrival > start:
                    start = arrival
            assert schedule.start(t) == start, t
            free = schedule.finish(t)


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_ordered_identical(self, g):
        clusters = _chain_split_clusters(g)
        s = simulate_ordered(g.copy(), clusters)
        assert _processor_orders(s) == clusters
        _assert_timing_rule(g, s)

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_clustering_identical(self, g):
        assignment = {t: i % 3 for i, t in enumerate(g.tasks())}
        s = simulate_clustering(g.copy(), assignment)
        _assert_timing_rule(g, s)
        # the clusters are the b-level priority order, split by processor
        gi = graph_index(g)
        levels = b_levels(g)
        order = [
            gi.tasks[i]
            for i in priority_topo_order_idx(gi, [levels[t] for t in gi.tasks])
        ]
        procs = sorted(set(assignment.values()))
        clusters = [[t for t in order if assignment[t] == q] for q in procs]
        assert s.to_dict() == simulate_ordered(g, clusters).to_dict()

    @pytest.mark.parametrize("flag", [True, False])
    def test_validation_hoisted_behind_flag(self, flag, monkeypatch):
        g = GRAPHS[0]
        tasks = list(g.tasks())
        calls = []
        check = simulator._validate_clusters
        monkeypatch.setattr(
            simulator,
            "_validate_clusters",
            lambda *args: (calls.append(args), check(*args)),
        )
        simulate_ordered(g, [list(g.topological_order())], validate=flag)
        assert len(calls) == int(flag)
        if flag:
            with pytest.raises(ScheduleError, match="more than one cluster"):
                simulate_ordered(g, [tasks, [tasks[0]]])
            with pytest.raises(ScheduleError, match="not clustered"):
                simulate_ordered(g, [tasks[:-1]])

    @pytest.mark.parametrize("flag", [True, False])
    def test_deadlocking_order_raises_in_both_modes(self, flag):
        g = TaskGraph()
        for t in "ab":
            g.add_task(t, 1)
        g.add_edge("a", "b", 1)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_ordered(g, [["b", "a"]], validate=flag)


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", REWRITTEN)
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_schedules_placement_identical(self, name, g):
        s = get_scheduler(name).schedule(g)
        # every placement is the simulator's timing of its processor order
        _assert_timing_rule(g, s)
        again = simulate_ordered(g, _processor_orders(s))
        assert {p.task: (p.processor, p.start, p.finish) for p in s} == {
            p.task: (p.processor, p.start, p.finish) for p in again
        }


# ----------------------------------------------------------------------
# clan decomposition: bitsets vs the test-only numpy reference
#
# The reference is vectorized over the int8 relation matrix and grows every
# smallest-module closure to its end, where the bitset implementation stops
# a closure at a vertex known to lie outside the seed's module, or does not
# run it when its first wave already reaches one.  Both number
# vertices topologically, discover components in ascending first-vertex
# order and seed closures in (v, u) order, so the trees, children order
# included, must coincide.
# ----------------------------------------------------------------------
def reference_decompose(graph: TaskGraph) -> ClanNode:
    rm = RelationMatrix(graph)
    return _ref_decompose(rm, np.arange(rm.n))


def _ref_decompose(rm: RelationMatrix, idx: np.ndarray) -> ClanNode:
    """Recursive modular decomposition on the vertex subset ``idx``.

    ``idx`` holds positions into ``rm.tasks`` in ascending topological order.
    """
    if len(idx) == 1:
        task = rm.tasks[int(idx[0])]
        return ClanNode(ClanKind.LEAF, frozenset([task]), task=task)

    sub = rm.matrix[np.ix_(idx, idx)]
    comparable = sub != UNRELATED  # symmetric boolean matrix

    comp_labels = _ref_components(comparable)
    if comp_labels.max() > 0:
        children = [
            _ref_decompose(rm, idx[comp_labels == label])
            for label in range(comp_labels.max() + 1)
        ]
        children.sort(key=lambda c: min(rm.index[t] for t in c.members))
        return _ref_internal(ClanKind.INDEPENDENT, children)

    incomparable = ~comparable
    np.fill_diagonal(incomparable, False)
    co_labels = _ref_components(incomparable)
    if co_labels.max() > 0:
        children = [
            _ref_decompose(rm, idx[co_labels == label])
            for label in range(co_labels.max() + 1)
        ]
        # Total order between co-components: ascending minimum topological
        # index orders them (the earliest vertex of the earlier component is
        # an ancestor of the later component).
        children.sort(key=lambda c: min(rm.index[t] for t in c.members))
        for a, b in zip(children, children[1:]):
            if not rm.is_ancestor(next(iter(a.members)), next(iter(b.members))):
                raise DecompositionError("linear clan children are not ordered")
        return _ref_internal(ClanKind.LINEAR, children)

    children = [
        _ref_decompose(rm, part) for part in _ref_primitive_children(sub, idx)
    ]
    children.sort(key=lambda c: min(rm.index[t] for t in c.members))
    return _ref_internal(ClanKind.PRIMITIVE, children)


def _ref_internal(kind: ClanKind, children: list[ClanNode]) -> ClanNode:
    members = frozenset().union(*(c.members for c in children))
    return ClanNode(kind, members, children)


def _ref_components(adj: np.ndarray) -> np.ndarray:
    """Connected-component labels of a symmetric boolean adjacency matrix."""
    n = adj.shape[0]
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if labels[v] == -1:
                    labels[v] = current
                    stack.append(int(v))
        current += 1
    return labels


def _ref_primitive_children(sub: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """Maximal proper strong modules of a primitive 2-structure.

    ``sub`` is the relation matrix restricted to the clan; returns global
    index arrays, one per child, partitioning ``idx``.
    """
    n = sub.shape[0]
    assigned = np.full(n, -1, dtype=int)
    parts: list[np.ndarray] = []
    for v in range(n):
        if assigned[v] != -1:
            continue
        member = np.zeros(n, dtype=bool)
        member[v] = True
        for u in range(n):
            if u == v or member[u] or assigned[u] != -1:
                continue
            closure = _ref_smallest_module(sub, v, u)
            if not closure.all():  # proper: lies inside v's maximal module
                member |= closure
        assigned[np.flatnonzero(member)] = len(parts)
        parts.append(idx[member])
    if len(parts) < 2:
        raise DecompositionError("primitive clan produced fewer than two children")
    return parts


def _ref_smallest_module(rel: np.ndarray, v: int, u: int) -> np.ndarray:
    """Boolean mask of the smallest module containing vertices ``v`` and ``u``.

    Wave-batched closure: whenever vertices join the module, every outside
    vertex whose relation to any of them differs from its (uniform) relation
    to the module becomes a splitter and joins in the next wave.
    """
    n = rel.shape[0]
    member = np.zeros(n, dtype=bool)
    member[v] = True
    member[u] = True
    # ref[z] = relation of z to the module (uniform by the closure invariant)
    ref = rel[:, v]
    new = np.array([u], dtype=np.intp)
    count = 2
    while new.size:
        splits = (rel[:, new] != ref[:, None]).any(axis=1)
        splits &= ~member
        new = np.flatnonzero(splits)
        member[new] = True
        count += new.size
        if count == n:
            break
    return member


def _tree_shape(node):
    if node.is_leaf:
        return ("leaf", node.task)
    return (node.kind.name, [_tree_shape(c) for c in node.children])


HUNT = hunt_graphs()


def _both_backends(g):
    return reference_decompose(g), decompose(g)


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


def _transposed(desc: list[int]) -> list[int]:
    """The transpose of the bitset rows ``desc``, one bit per set bit."""
    out = [0] * len(desc)
    for i, m in enumerate(desc):
        while m:
            lsb = m & -m
            out[lsb.bit_length() - 1] |= 1 << i
            m ^= lsb
    return out


def _check_bit_relations(g: TaskGraph) -> None:
    gi = graph_index(g)
    br = _BitRelations(gi)
    rm = RelationMatrix(g)
    rel = rm.matrix
    n = br.n
    # bit k is position k of the index's topological order
    assert [gi.tasks[i] for i in gi.topo_list] == rm.tasks
    assert br.desc == [
        sum(1 << j for j in range(n) if rel[i, j] == ABOVE) for i in range(n)
    ]
    assert br.anc == _transposed(br.desc)
    assert br.comp == [d | a for d, a in zip(br.desc, br.anc)]
    assert br.unrel == [
        br.full & ~c & ~(1 << i) for i, c in enumerate(br.comp)
    ]


class TestBitRelations:
    """``anc`` is built from predecessors, so it is checked against
    ``desc`` transposed; ``desc`` against the relation matrix; ``comp`` and
    ``unrel`` against their definitions."""

    @given(
        g=st.sampled_from([0.2, 0.35, 0.6]).flatmap(
            lambda bias: task_graphs(max_tasks=16, connected_bias=bias)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_anc_is_desc_transposed(self, g):
        _check_bit_relations(g)

    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_anc_is_desc_transposed_on_hunt_graphs(self, g):
        _check_bit_relations(g)


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
