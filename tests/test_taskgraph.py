"""Unit tests for repro.core.taskgraph."""

from __future__ import annotations

import json

import pytest

from repro import CycleError, GraphError, TaskGraph


class TestConstruction:
    def test_empty(self):
        g = TaskGraph()
        assert g.n_tasks == 0
        assert g.n_edges == 0
        assert len(g) == 0
        assert list(g) == []

    def test_add_task(self):
        g = TaskGraph()
        g.add_task("a", 5)
        assert "a" in g
        assert g.weight("a") == 5.0
        assert g.n_tasks == 1

    def test_read_task_weight_updates(self):
        g = TaskGraph()
        g.add_task("a", 5)
        g.add_task("a", 9)
        assert g.weight("a") == 9.0
        assert g.n_tasks == 1

    def test_add_edge(self):
        g = TaskGraph()
        g.add_task("a", 1)
        g.add_task("b", 1)
        g.add_edge("a", "b", 3)
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.edge_weight("a", "b") == 3.0

    def test_edge_to_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1)
        with pytest.raises(GraphError):
            g.add_edge("a", "missing", 1)
        with pytest.raises(GraphError):
            g.add_edge("missing", "a", 1)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1)
        with pytest.raises(GraphError):
            g.add_edge("a", "a", 1)

    @pytest.mark.parametrize("bad", [-1, float("nan"), float("inf"), "x", None])
    def test_bad_task_weight_rejected(self, bad):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("a", bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_edge_weight_rejected(self, bad):
        g = TaskGraph()
        g.add_task("a", 1)
        g.add_task("b", 1)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", bad)

    def test_zero_weights_allowed(self):
        g = TaskGraph()
        g.add_task("a", 0)
        g.add_task("b", 1)
        g.add_edge("a", "b", 0)
        assert g.weight("a") == 0.0
        assert g.edge_weight("a", "b") == 0.0

    def test_from_weights(self):
        g = TaskGraph.from_weights({"a": 1, "b": 2}, {("a", "b"): 3})
        assert g.n_tasks == 2
        assert g.edge_weight("a", "b") == 3.0


class TestMutation:
    def test_remove_edge(self, diamond):
        diamond.remove_edge("a", "b")
        assert not diamond.has_edge("a", "b")
        assert "b" in diamond.sources()

    def test_remove_missing_edge(self, diamond):
        with pytest.raises(GraphError):
            diamond.remove_edge("b", "c")

    def test_remove_task(self, diamond):
        diamond.remove_task("b")
        assert "b" not in diamond
        assert diamond.n_edges == 2  # a->c, c->d survive
        diamond.validate()

    def test_remove_missing_task(self):
        with pytest.raises(GraphError):
            TaskGraph().remove_task("nope")

    def test_updating_edge_weight(self, diamond):
        diamond.add_edge("a", "b", 99)
        assert diamond.edge_weight("a", "b") == 99.0
        assert diamond.n_edges == 4


class TestQueries:
    def test_degrees(self, diamond):
        assert diamond.out_degree("a") == 2
        assert diamond.in_degree("d") == 2
        assert diamond.in_degree("a") == 0

    def test_neighbors(self, diamond):
        assert sorted(diamond.successors("a")) == ["b", "c"]
        assert sorted(diamond.predecessors("d")) == ["b", "c"]

    def test_unknown_task_queries(self, diamond):
        for fn in (
            diamond.weight,
            diamond.successors,
            diamond.predecessors,
        ):
            with pytest.raises(GraphError):
                fn("missing")

    def test_out_edges_is_read_only_view(self, diamond):
        edges = diamond.out_edges("a")
        with pytest.raises(TypeError):
            edges["b"] = 999
        assert diamond.edge_weight("a", "b") == 4.0
        assert dict(diamond.in_edges("b")) == {"a": 4.0}
        # the view is live: it reflects later mutations of the graph
        diamond.add_task("z")
        diamond.add_edge("a", "z", 1.0)
        assert edges["z"] == 1.0

    def test_sources_sinks(self, diamond, chain5):
        assert diamond.sources() == ["a"]
        assert diamond.sinks() == ["d"]
        assert chain5.sources() == [0]
        assert chain5.sinks() == [4]

    def test_serial_time(self, paper_example):
        assert paper_example.serial_time() == 150.0

    def test_repr(self, diamond):
        assert "n_tasks=4" in repr(diamond)

    def test_eq(self, diamond):
        other = diamond.copy()
        assert diamond == other
        other.add_task("e", 1)
        assert diamond != other
        assert diamond != "not a graph"

    def test_unhashable(self, diamond):
        with pytest.raises(TypeError):
            hash(diamond)


class TestStructure:
    def test_topological_order(self, paper_example):
        order = paper_example.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in paper_example.edges():
            assert pos[u] < pos[v]

    def test_cycle_detection(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, 1)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 0)
        g.add_edge("c", "a", 0)
        assert not g.is_dag()
        with pytest.raises(CycleError):
            g.topological_order()
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_clean(self, paper_example):
        paper_example.validate()  # must not raise

    def test_ancestors_descendants(self, paper_example):
        assert paper_example.ancestors(5) == {1, 2, 3, 4}
        assert paper_example.descendants(1) == {2, 3, 4, 5}
        assert paper_example.ancestors(1) == set()
        assert paper_example.descendants(5) == set()
        assert paper_example.ancestors(4) == {1, 3}

    def test_transitive_reduction(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, 1)
        g.add_edge("a", "b", 1)
        g.add_edge("b", "c", 1)
        g.add_edge("a", "c", 9)  # redundant
        r = g.transitive_reduction()
        assert not r.has_edge("a", "c")
        assert r.has_edge("a", "b") and r.has_edge("b", "c")
        assert g.has_edge("a", "c")  # original untouched

    def test_transitive_reduction_preserves_weights(self, diamond):
        r = diamond.transitive_reduction()
        assert r == diamond  # nothing redundant in a diamond


class TestDerivedGraphs:
    def test_copy_independent(self, diamond):
        c = diamond.copy()
        c.add_task("z", 1)
        c.remove_edge("a", "b")
        assert "z" not in diamond
        assert diamond.has_edge("a", "b")

    def test_subgraph(self, paper_example):
        sub = paper_example.subgraph({3, 4, 5})
        assert sub.n_tasks == 3
        assert sub.has_edge(3, 4) and sub.has_edge(4, 5)
        assert sub.n_edges == 2

    def test_subgraph_unknown(self, paper_example):
        with pytest.raises(GraphError):
            paper_example.subgraph({1, 99})

    def test_relabeled(self, diamond):
        r = diamond.relabeled({"a": "start", "d": "end"})
        assert "start" in r and "end" in r and "b" in r
        assert r.has_edge("start", "b")
        assert r.edge_weight("b", "end") == 4.0

    def test_relabel_not_injective(self, diamond):
        with pytest.raises(GraphError):
            diamond.relabeled({"a": "x", "b": "x"})


class TestInterop:
    def test_networkx_roundtrip(self, paper_example):
        nxg = paper_example.to_networkx()
        back = TaskGraph.from_networkx(nxg)
        assert back == paper_example

    def test_networkx_attrs(self, diamond):
        nxg = diamond.to_networkx()
        assert nxg.nodes["a"]["weight"] == 10.0
        assert nxg.edges["a", "b"]["weight"] == 4.0

    def test_dict_roundtrip(self, paper_example):
        data = json.loads(json.dumps(paper_example.to_dict()))
        assert TaskGraph.from_dict(data) == paper_example

    def test_dict_roundtrip_tuple_ids(self):
        g = TaskGraph()
        g.add_task((0, 1), 2)
        g.add_task((0, 2), 3)
        g.add_edge((0, 1), (0, 2), 1)
        data = json.loads(json.dumps(g.to_dict()))
        back = TaskGraph.from_dict(data)
        assert back == g

    def test_to_dot(self, diamond):
        dot = diamond.to_dot()
        assert dot.startswith("digraph")
        assert '"a" -> "b"' in dot


class TestDerivedValueCache:
    """The versioned memo table behind topological_order/validate/levels."""

    def test_version_bumps_on_every_mutation(self):
        g = TaskGraph()
        v0 = g.version
        g.add_task("a")
        g.add_task("b")
        assert g.version > v0
        v1 = g.version
        g.add_edge("a", "b", 2.0)
        assert g.version > v1
        v2 = g.version
        g.remove_edge("a", "b")
        assert g.version > v2
        v3 = g.version
        g.remove_task("b")
        assert g.version > v3

    def test_weight_update_bumps_version(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        v = g.version
        g.add_task("a", 5.0)  # re-add updates the weight in place
        assert g.version > v

    def test_topological_order_is_memoized(self, diamond):
        first = diamond.topological_order()
        memo = diamond.shape_cached("topological_order", lambda: 1 / 0)  # a hit
        assert memo == first and memo is not first  # copies out
        assert diamond.topological_order() == first

    def test_cached_returns_shared_value_until_mutation(self, diamond):
        calls = []
        value1 = diamond.cached("probe", lambda: calls.append(1) or [1, 2])
        value2 = diamond.cached("probe", lambda: calls.append(2) or [3, 4])
        assert value1 is value2 and calls == [1]
        diamond.add_task("zz")
        value3 = diamond.cached("probe", lambda: calls.append(3) or [5, 6])
        assert value3 == [5, 6] and calls == [1, 3]

    def test_add_edge_invalidates_topological_order(self):
        g = TaskGraph()
        for t in ("a", "b", "c"):
            g.add_task(t)
        g.add_edge("a", "b")
        order = g.topological_order()
        assert order.index("a") < order.index("b")
        # "c" currently unconstrained; force it before "a" and re-ask
        g.add_edge("c", "a")
        order = g.topological_order()
        assert order.index("c") < order.index("a") < order.index("b")

    def test_remove_edge_invalidates_cycle_verdict(self):
        g = TaskGraph()
        g.add_task("a")
        g.add_task("b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")  # cycle (the class defers acyclicity checks)
        assert not g.is_dag()
        g.remove_edge("b", "a")
        assert g.is_dag()

    def test_validate_memoized_but_invalidated(self, diamond):
        diamond.validate()
        assert diamond.has_cached("validated")
        diamond.add_task("z")
        assert not diamond.has_cached("validated")
        diamond.validate()

    def test_returned_order_is_caller_owned(self, diamond):
        order = diamond.topological_order()
        order.clear()  # must not corrupt the memoized copy
        assert diamond.topological_order() == diamond._topological_order()
