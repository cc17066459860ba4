"""The shape table: the topological order and the clan parse, memoized per
DAG shape.

Both read only the tasks, the edges and their insertion order (a clan is
defined by ancestor, descendant and unrelated relations alone, appendix
A.5), so a copy and a weight-only edit keep them and a structural edit
replaces them.  These tests pin the sharing rules, the rule that an edit
replaces a shared table rather than clearing it, pickling, the
``clans.parses`` counter, the daemon's eviction hook, and a differential
check of every perturbation op against a freshly wire-decoded graph.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph
from repro.adversarial import search
from repro.adversarial.env import ALL_OPS, MIN_WEIGHT, PerturbationEnv, apply_op
from repro.adversarial.objective import make_objective
from repro.adversarial.store import build_base_graph
from repro.clans.decomposition import decompose
from repro.cli import main
from repro.core import wire
from repro.core.wire import graph_from_wire, graph_to_wire
from repro.experiments.advbench import BASE_SPEC, OBJECTIVE, PAIR
from repro.generation.workloads import fork_join
from repro.obs import RunManifest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.schedulers import ClansScheduler
from repro.service import ServerThread, ServiceClient
from repro.service import server as server_module

from conftest import hunt_graphs, task_graphs


HUNT = hunt_graphs()


def _tree(node) -> tuple:
    """A parse tree's kinds, masks, leaf tasks and child order."""
    return (node.kind, node.mask, node.task, tuple(_tree(c) for c in node.children))


def _fresh(graph: TaskGraph) -> TaskGraph:
    """The same graph through the wire codec: no memo shared with ``graph``."""
    return graph_from_wire(graph_to_wire(graph))


def _parses(fn) -> float:
    """How many parses ``fn()`` computed."""
    with use_registry(MetricsRegistry()) as registry:
        fn()
    return registry.counters().get("clans.parses", 0.0)


class TestWeightOnlyEdits:
    def test_reweighting_a_task_keeps_the_parse(self, diamond):
        tree = decompose(diamond)
        order = diamond.topological_order()
        version = diamond.version
        diamond.add_task("b", 9.0)
        assert diamond.version > version
        assert decompose(diamond) is tree
        assert diamond.topological_order() == order

    def test_reweighting_an_edge_keeps_the_parse(self, diamond):
        tree = decompose(diamond)
        diamond.add_edge("a", "b", 7.5)
        assert decompose(diamond) is tree
        assert diamond.has_cached("topological_order")

    @pytest.mark.parametrize("target", ["nodes", "edges"])
    def test_granularity_shift_keeps_the_parse(self, diamond, target):
        tree = decompose(diamond)
        apply_op(diamond, ("granularity_shift", target, 2.0))
        assert decompose(diamond) is tree

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g.add_task("e", 1.0),
            lambda g: g.add_edge("b", "c", 1.0),
            lambda g: g.remove_edge("a", "b"),
            lambda g: g.remove_task("c"),
        ],
        ids=["new task", "new edge", "removed edge", "removed task"],
    )
    def test_a_structural_edit_replaces_the_parse(self, diamond, edit):
        tree = decompose(diamond)
        edit(diamond)
        assert not diamond.has_cached("topological_order")
        again = decompose(diamond)
        assert again is not tree
        assert _tree(again) == _tree(decompose(_fresh(diamond)))

    def test_the_version_table_still_drops_on_a_weight_edit(self, diamond):
        diamond.validate()
        diamond.add_task("a", 3.0)
        assert not diamond.has_cached("validated")
        assert diamond.has_cached("topological_order")


class TestCopies:
    def test_a_copy_shares_the_parse(self, diamond):
        copy = diamond.copy()
        assert _parses(lambda: decompose(diamond) is decompose(copy)) == 1
        assert decompose(copy) is decompose(diamond)

    def test_a_structural_edit_on_a_copy_leaves_the_original(self, diamond):
        tree = decompose(diamond)
        order = diamond.topological_order()
        copy = diamond.copy()
        copy.add_task("e", 1.0)
        copy.add_edge("d", "e", 1.0)
        assert decompose(copy) is not tree
        assert "e" in decompose(copy).members
        assert decompose(diamond) is tree
        assert diamond.topological_order() == order
        assert "e" not in tree.members

    def test_an_edit_replaces_the_shared_table_never_clears_it(self, diamond):
        """The original is edited while it shares an empty table with a
        copy; the copy then fills that table.  Had the edit cleared the
        table in place, the copy's order and parse would now be the
        original's."""
        copy = diamond.copy()
        diamond.add_edge("b", "c", 1.0)  # orders b before c
        copy_order = copy.topological_order()
        copy_tree = decompose(copy)
        assert diamond.topological_order() != copy_order
        assert diamond.topological_order() == _fresh(diamond).topological_order()
        assert decompose(diamond) is not copy_tree
        assert _tree(decompose(diamond)) == _tree(decompose(_fresh(diamond)))
        assert _tree(copy_tree) != _tree(decompose(diamond))

    def test_pickling_starts_fresh_tables(self, diamond):
        tree = decompose(diamond)
        clone = pickle.loads(pickle.dumps(diamond))
        assert not clone.has_cached("topological_order")
        assert _parses(lambda: decompose(clone)) == 1
        assert decompose(clone) is not tree
        assert _tree(decompose(clone)) == _tree(tree)


class TestParseCounter:
    def test_counts_computed_parses_not_calls(self, diamond):
        def run():
            decompose(diamond)
            decompose(diamond)
            decompose(diamond.copy())
            diamond.add_task("a", 4.0)
            ClansScheduler().schedule(diamond)
            diamond.add_edge("b", "c", 1.0)
            ClansScheduler().schedule(diamond)
            ClansScheduler().schedule(diamond)

        assert _parses(run) == 2

    def test_stats_show_the_reuse_of_a_hunt(self, tmp_path, capsys):
        """``repro stats`` on a hunt's manifest shows fewer parses than
        CLANS calls: weight-only candidates reuse their parent's parse."""
        base = build_base_graph(BASE_SPEC)
        with use_registry(MetricsRegistry()) as registry:
            search.hunt(
                base, make_objective(OBJECTIVE, *PAIR), seed=3, steps=4, neighborhood=8
            )
        manifest = RunManifest.collect(config={"command": "hunt"})
        manifest.attach_metrics(registry)
        results = tmp_path / "hunt.json"
        manifest.write_for(results)
        assert main(["stats", str(results)]) == 0
        out = capsys.readouterr().out
        calls = int(next(ln for ln in out.splitlines() if ln.startswith("CLANS")).split()[1])
        parses = float(
            next(ln for ln in out.splitlines() if ln.split()[:1] == ["clans.parses"]).split()[1]
        )
        assert 1 <= parses < calls


class TestDaemon:
    def test_repeated_clans_requests_parse_once(self):
        g = fork_join(5)
        with use_registry(MetricsRegistry()) as registry:
            with ServerThread(port=0) as st, ServiceClient(st.address) as c:
                replies = [c.schedule(g, "CLANS") for _ in range(3)]
        assert registry.counters()["clans.parses"] == 1
        assert replies[0] == replies[1] == replies[2]

    def test_eviction_releases_the_parse(self):
        cache = server_module._GraphCache(1)
        first, second = (graph_to_wire(fork_join(k)) for k in (4, 5))
        g = cache.get_or_decode(wire.graph_digest(first), first)
        tree = decompose(g)
        cache.get_or_decode(wire.graph_digest(second), second)  # evicts g
        assert not g.has_cached("kernels.graph_index")
        assert _parses(lambda: decompose(g)) == 1
        assert decompose(g) is not tree


class TestThreads:
    def test_copies_parsed_at_once_get_one_tree(self):
        """Eight threads parse eight copies of one unparsed graph at once,
        each under its own copy's lock: every thread gets the tree stored
        first in the table they share."""
        base = _fresh(HUNT[0][1])
        copies = [base.copy() for _ in range(8)]
        trees: list = [None] * len(copies)
        barrier = threading.Barrier(len(copies))

        def parse(k):
            barrier.wait()
            trees[k] = decompose(copies[k])

        threads = [threading.Thread(target=parse, args=(k,)) for k in range(len(copies))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(tree is trees[0] for tree in trees)
        assert decompose(base) is trees[0]


def _same_as_fresh(candidate: TaskGraph, op: tuple) -> None:
    fresh = _fresh(candidate)
    assert _tree(decompose(candidate)) == _tree(decompose(fresh)), op
    ours = ClansScheduler().schedule(candidate)
    theirs = ClansScheduler().schedule(fresh)
    assert wire.dumps(ours.to_dict()) == wire.dumps(theirs.to_dict()), op


class TestEveryOpMatchesAFreshGraph:
    """A candidate made by any perturbation op from a parsed graph parses
    and schedules as the same graph decoded from the wire, which shares no
    memo with it."""

    @staticmethod
    def _candidates(graph: TaskGraph, rng: random.Random, per_op: int):
        decompose(graph)  # prime the shape table the candidates may share
        for kind in ALL_OPS:
            env = PerturbationEnv(graph, rng, ops=(kind,))
            for _ in range(per_op):
                op = env.propose()
                if op is None:
                    continue
                candidate = graph.copy()
                apply_op(candidate, op)
                yield op, candidate

    @pytest.mark.parametrize("name, graph", HUNT, ids=[name for name, _ in HUNT])
    def test_hunt_graphs(self, name, graph):
        for op, candidate in self._candidates(graph, random.Random(name), 2):
            _same_as_fresh(candidate, op)

    @given(g=task_graphs(min_tasks=2, max_tasks=12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_dags(self, g, seed):
        if g.n_edges == 0:
            return
        # the ops keep every weight in the search's clamp, which starts here
        g = TaskGraph.from_weights(
            {t: max(g.weight(t), MIN_WEIGHT) for t in g},
            {(u, v): max(g.edge_weight(u, v), MIN_WEIGHT) for u, v in g.edges()},
        )
        for op, candidate in self._candidates(g, random.Random(seed), 1):
            _same_as_fresh(candidate, op)
