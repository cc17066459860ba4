"""CLANS and LC on the compiled index against their Task-keyed originals.

The references below are the Task-dict implementations that the index
versions replaced, kept here as test-only oracles:

* the clan parse over task-keyed relations (rows built from
  ``graph.successors``/``graph.predecessors`` in
  ``graph.topological_order()``), with a frozenset of members built at
  every clan;
* CLANS's quotient over ``graph.in_edges``/``graph.out_edges`` with a
  ``child_of`` dict per clan, Task clusters and ``simulate_ordered``;
* LC's loop that copies the graph and reruns ``critical_path`` on the
  shrinking copy, one compiled index per extracted path.

The bitmask closures (``_mask_components``, ``_primitive_children_bits``)
and the grouping decision (``ClansScheduler._decide``) are shared with the
code under test: the first are checked against the numpy reference in
``tests/test_kernels.py``, the second against the exhaustive mini-schedule
in ``tests/test_clans_scheduler.py``.

Each corpus must give byte-equal schedules, equal ``clans.*`` decision
counters, and parse trees equal in kinds, members and child order: the
hypothesis DAGs, the advbench hunt candidates (each with a primitive clan
of 20 or more children), the service request mixes and the default
60-graph Table-1 suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClansScheduler, TaskGraph
from repro.clans.decomposition import (
    _mask_components,
    _primitive_children_bits,
    decompose,
)
from repro.clans.parse_tree import ClanKind, ClanNode
from repro.core.analysis import critical_path
from repro.core.exceptions import DecompositionError
from repro.core.schedule import Schedule
from repro.core.simulator import serial_schedule, simulate_ordered
from repro.core.taskgraph import Task
from repro.core.wire import graph_from_wire
from repro.generation.suites import generate_suite
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.schedulers.clans_sched import GroupDecision, _Quotient
from repro.schedulers.lc import LCScheduler
from repro.service.loadgen import build_mix

from conftest import RecordingClans, hunt_graphs, task_graphs


# ----------------------------------------------------------------------
# reference: the Task-keyed clan parse
# ----------------------------------------------------------------------
class _TaskRelations:
    """Ancestor/descendant bitmask rows built from the task-keyed graph."""

    def __init__(self, graph: TaskGraph) -> None:
        tasks = graph.topological_order()
        index = {t: i for i, t in enumerate(tasks)}
        n = len(tasks)
        desc = [0] * n
        for i in range(n - 1, -1, -1):
            m = 0
            for s in graph.successors(tasks[i]):
                j = index[s]
                m |= (1 << j) | desc[j]
            desc[i] = m
        anc = [0] * n
        for i in range(n):
            m = 0
            for p in graph.predecessors(tasks[i]):
                j = index[p]
                m |= (1 << j) | anc[j]
            anc[i] = m
        self.tasks = tasks
        self.n = n
        self.full = (1 << n) - 1
        self.desc = desc
        self.anc = anc
        self.comp = [desc[i] | anc[i] for i in range(n)]
        self.unrel = [self.full & ~self.comp[i] & ~(1 << i) for i in range(n)]


def reference_decompose(graph: TaskGraph) -> ClanNode:
    if graph.n_tasks == 0:
        raise DecompositionError("cannot decompose an empty graph")
    br = _TaskRelations(graph)
    return _reference_bits(br, br.full)


def _reference_internal(kind: ClanKind, children: list[ClanNode]) -> ClanNode:
    members = frozenset().union(*(c.members for c in children))
    return ClanNode(kind, members, children)


def _reference_bits(br: _TaskRelations, subset: int) -> ClanNode:
    if subset & (subset - 1) == 0:
        task = br.tasks[subset.bit_length() - 1]
        return ClanNode(ClanKind.LEAF, frozenset([task]), task=task)
    comps = _mask_components(subset, br.comp)
    if len(comps) > 1:
        children = [_reference_bits(br, c) for c in comps]
        return _reference_internal(ClanKind.INDEPENDENT, children)
    cocomps = _mask_components(subset, br.unrel)
    if len(cocomps) > 1:
        children = [_reference_bits(br, c) for c in cocomps]
        return _reference_internal(ClanKind.LINEAR, children)
    parts = _primitive_children_bits(br, subset)
    children = [_reference_bits(br, part) for part in parts]
    return _reference_internal(ClanKind.PRIMITIVE, children)


# ----------------------------------------------------------------------
# reference: CLANS on Task-keyed dicts
# ----------------------------------------------------------------------
@dataclass
class _TaskContext:
    graph: TaskGraph
    cost: dict[int, float] = field(default_factory=dict)
    decisions: dict[int, GroupDecision] = field(default_factory=dict)
    clusters: list[list[Task]] = field(default_factory=lambda: [[]])


class ReferenceClans(ClansScheduler):
    """CLANS with the Task-keyed parse, quotient and clusters.

    Not registered.  ``quotients`` collects every quotient it decides on,
    in decision order.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.quotients: list[_Quotient] = []

    def _schedule(self, graph: TaskGraph) -> Schedule:
        tree = reference_decompose(graph)
        self.last_tree = tree
        ctx = _TaskContext(graph)
        self._reference_annotate(tree, ctx)
        self._reference_assign(tree, ctx, 0)
        registry = get_registry()
        registry.inc("clans.group_decisions", len(ctx.decisions))
        registry.inc(
            "clans.parallel_decisions",
            sum(1 for d in ctx.decisions.values() if d.parallelized),
        )
        schedule = simulate_ordered(graph, ctx.clusters, validate=False)
        self.last_fallback = False
        if self.speedup_check and schedule.makespan > graph.serial_time() + 1e-9:
            self.last_fallback = True
            registry.inc("clans.serial_fallbacks")
            return serial_schedule(graph)
        return schedule

    def _reference_annotate(self, node: ClanNode, ctx: _TaskContext) -> float:
        if node.is_leaf:
            cost = ctx.graph.weight(node.task)
        elif node.kind is ClanKind.LINEAR:
            cost = sum(self._reference_annotate(c, ctx) for c in node.children)
        else:
            for c in node.children:
                self._reference_annotate(c, ctx)
            q = self._reference_quotient(node, ctx)
            self.quotients.append(q)
            decision = self._decide(q)
            ctx.decisions[id(node)] = decision
            cost = decision.cost
        ctx.cost[id(node)] = cost
        return cost

    @staticmethod
    def _reference_quotient(node: ClanNode, ctx: _TaskContext) -> _Quotient:
        n = len(node.children)
        child_of: dict[Task, int] = {}
        for i, c in enumerate(node.children):
            for t in c.members:
                child_of[t] = i
        graph = ctx.graph
        costs = [ctx.cost[id(c)] for c in node.children]
        comm_in = [0.0] * n
        comm_out = [0.0] * n
        succ: list[dict[int, float]] = [{} for _ in range(n)]
        pred: list[dict[int, float]] = [{} for _ in range(n)]
        for i, c in enumerate(node.children):
            c_in = c_out = 0.0
            succ_i = succ[i]
            for t in c.members:
                for p, w in graph.in_edges(t).items():
                    if w > c_in and p not in child_of:
                        c_in = w
                for s, w in graph.out_edges(t).items():
                    j = child_of.get(s, -1)
                    if j < 0:
                        if w > c_out:
                            c_out = w
                    elif j != i and w > succ_i.get(j, -1.0):
                        succ_i[j] = w
                        pred[j][i] = w
            comm_in[i] = c_in
            comm_out[i] = c_out
        return _Quotient(costs, comm_in, comm_out, succ, pred)

    def _reference_assign(self, node: ClanNode, ctx: _TaskContext, cluster: int) -> None:
        if node.is_leaf:
            ctx.clusters[cluster].append(node.task)
            return
        if node.kind is ClanKind.LINEAR:
            for child in node.children:
                self._reference_assign(child, ctx, cluster)
            return
        decision = ctx.decisions[id(node)]
        for j, group in enumerate(decision.groups):
            if j == 0:
                target = cluster
            else:
                ctx.clusters.append([])
                target = len(ctx.clusters) - 1
            for i in group:
                self._reference_assign(node.children[i], ctx, target)


# ----------------------------------------------------------------------
# reference: LC on a shrinking copy
# ----------------------------------------------------------------------
def reference_lc(graph: TaskGraph) -> Schedule:
    remaining = graph.copy()
    clusters: list[list] = []
    while remaining.n_tasks:
        path = critical_path(remaining, communication=True)
        clusters.append(path)
        for t in path:
            remaining.remove_task(t)
    return simulate_ordered(graph, clusters, validate=False)


# ----------------------------------------------------------------------
# corpora and comparisons
# ----------------------------------------------------------------------
def _suite_graphs() -> list[tuple[str, TaskGraph]]:
    return [
        (f"suite-{k}", sg.graph)
        for k, sg in enumerate(generate_suite(graphs_per_cell=1))
    ]


def _mix_graphs() -> list[tuple[str, TaskGraph]]:
    return [
        (f"mix{seed}-{k}", graph_from_wire(wire))
        for seed in (0, 7919, 15838, 23757)
        for k, wire in enumerate(build_mix(seed).graphs)
    ]


SUITE = _suite_graphs()
HUNT = hunt_graphs()
MIX = _mix_graphs()
CORPUS = SUITE + HUNT + MIX


def _rows(schedule: Schedule) -> list:
    """A schedule byte for byte: every placement with its floats in hex."""
    return [
        (repr(p.task), p.processor, p.start.hex(), p.finish.hex())
        for p in schedule
    ]


def _tree(node: ClanNode):
    if node.is_leaf:
        return ("leaf", node.task, node.members)
    return (node.kind, node.members, [_tree(c) for c in node.children])


def _same_quotient(a: _Quotient, b: _Quotient) -> bool:
    return (
        [x.hex() for x in a.costs] == [x.hex() for x in b.costs]
        and [x.hex() for x in a.comm_in] == [x.hex() for x in b.comm_in]
        and [x.hex() for x in a.comm_out] == [x.hex() for x in b.comm_out]
        and a.succ == b.succ
        and a.pred == b.pred
        and [x.hex() for x in a.blevel] == [x.hex() for x in b.blevel]
    )


_COUNTERS = ("clans.group_decisions", "clans.parallel_decisions", "clans.serial_fallbacks")


def _run(scheduler, graph: TaskGraph):
    with use_registry(MetricsRegistry()) as registry:
        schedule = scheduler.schedule(graph)
        counters = registry.snapshot()["counters"]
    return schedule, [counters.get(name, 0) for name in _COUNTERS]


def _check_clans(graph: TaskGraph, speedup_check: bool) -> None:
    new = RecordingClans(speedup_check=speedup_check)
    ref = ReferenceClans(speedup_check=speedup_check)
    got, got_counters = _run(new, graph)
    want, want_counters = _run(ref, graph)
    assert _rows(got) == _rows(want)
    assert got_counters == want_counters
    assert new.last_fallback == ref.last_fallback
    assert _tree(new.last_tree) == _tree(ref.last_tree)
    assert len(new.decided) == len(ref.quotients)
    for (a, _), b in zip(new.decided, ref.quotients):
        assert _same_quotient(a, b)


class TestClansMatchesTaskKeyedReference:
    @pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
    @pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=[n for n, _ in CORPUS])
    def test_corpus(self, g, check):
        _check_clans(g, check)

    @given(
        g=st.sampled_from([0.2, 0.35, 0.6]).flatmap(
            lambda bias: task_graphs(max_tasks=16, connected_bias=bias)
        ),
        check=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_dags(self, g, check):
        _check_clans(g, check)

    def test_corpus_exercises_both_kinds_of_decision(self):
        """The decision counters compared above are not all zero on the
        corpus: some clans are parallelized and some are not.  (The macro
        serial fallback fires on none of these graphs.)"""
        totals = [0, 0, 0]
        for _, g in CORPUS:
            _, counters = _run(ClansScheduler(), g)
            totals = [a + b for a, b in zip(totals, counters)]
        assert totals[0] > totals[1] > 0


class TestLCMatchesShrinkingCopy:
    @pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=[n for n, _ in CORPUS])
    def test_corpus(self, g):
        assert _rows(LCScheduler().schedule(g)) == _rows(reference_lc(g))

    @given(
        g=st.sampled_from([0.2, 0.35, 0.6]).flatmap(
            lambda bias: task_graphs(max_tasks=16, connected_bias=bias)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_dags(self, g):
        assert _rows(LCScheduler().schedule(g)) == _rows(reference_lc(g))


class TestOneCompilePerGraph:
    """Scheduling a graph never seen before compiles its index once."""

    @pytest.mark.parametrize("scheduler", [LCScheduler, ClansScheduler])
    @pytest.mark.parametrize("name", ["suite-0", "mix0-8"])
    def test_fresh_graph(self, scheduler, name):
        graph = dict(CORPUS)[name].copy()
        with use_registry(MetricsRegistry()) as registry:
            scheduler().schedule(graph)
            scheduler().schedule(graph)
            counters = registry.snapshot()["counters"]
        assert counters["kernels.cache.misses"] == 1


class TestHandBuiltNodes:
    def test_members_given_or_built_from_the_mask(self):
        g = dict(CORPUS)["suite-0"]
        built = decompose(g)
        assert built.size == g.n_tasks  # from the mask: no members yet
        assert built.members == frozenset(g.tasks())
        by_hand = ClanNode(built.kind, built.members, built.children)
        assert by_hand.mask is None
        assert by_hand.members is built.members
        assert by_hand.size == g.n_tasks
        leaf = ClanNode(ClanKind.LEAF, frozenset(["x"]), task="x")
        assert leaf.size == 1 and leaf.is_leaf and list(leaf.leaves()) == [leaf]

    def test_a_node_needs_members_or_a_mask(self):
        with pytest.raises(ValueError):
            ClanNode(ClanKind.LINEAR)


def test_corpus_sizes():
    """60 suite graphs, 33 hunt candidates (``tests/test_kernels.py``
    checks their primitive clans of 20 or more children), 36 mix graphs."""
    assert (len(SUITE), len(HUNT), len(MIX)) == (60, 33, 36)
