"""Unit tests for the list schedulers' shared IndexedPool."""

from __future__ import annotations

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph
from repro.core.kernels import IndexedPool, graph_index
from repro.obs.metrics import get_registry

from conftest import hunt_graphs, tie_graphs

HUNT = hunt_graphs()


@pytest.fixture
def graph():
    g = TaskGraph()
    g.add_task("a", 10)
    g.add_task("b", 20)
    g.add_task("c", 5)
    g.add_edge("a", "b", 7)
    g.add_edge("a", "c", 3)
    return g


def make_pool(graph, **kwargs):
    """An :class:`IndexedPool` on ``graph`` plus its task -> id map."""
    gi = graph_index(graph)
    return IndexedPool(gi, **kwargs), gi.index_of


class TestBookkeeping:
    def test_initially_empty(self, graph):
        pool, _ = make_pool(graph)
        assert pool.n_processors == 0
        assert pool.avail(0) == 0.0
        assert pool.can_grow

    def test_place_grows_pool(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        assert pool.n_processors == 1
        assert pool.avail(0) == 10.0
        assert pool.proc_of[ids["a"]] == 0

    def test_non_contiguous_rejected(self, graph):
        pool, ids = make_pool(graph)
        with pytest.raises(ValueError):
            pool.place(ids["a"], 3, 0.0)

    def test_bad_cap(self, graph):
        with pytest.raises(ValueError):
            make_pool(graph, max_processors=0)


class TestReadyTimes:
    def test_same_processor_no_comm(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        assert pool.ready_time(ids["b"], 0) == 10.0

    def test_cross_processor_pays(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        assert pool.ready_time(ids["b"], 1) == 17.0
        assert pool.ready_time(ids["c"], 1) == 13.0

    def test_est_append_includes_avail(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        pool.place(ids["b"], 0, 10.0)
        # c on proc 0: data ready at 10, proc busy until 30
        assert pool.est_append(ids["c"], 0) == 30.0


class TestInsertion:
    def test_slides_into_gap(self):
        g = TaskGraph()
        g.add_task("x", 10)
        g.add_task("y", 10)
        g.add_task("z", 5)
        pool, ids = make_pool(g)
        pool.place(ids["x"], 0, 0.0)
        pool.place(ids["y"], 0, 20.0)  # gap [10, 20]
        assert pool.est_insertion(ids["z"], 0) == 10.0
        assert pool.est_append(ids["z"], 0) == 30.0

    def test_gap_too_small(self):
        g = TaskGraph()
        g.add_task("x", 10)
        g.add_task("y", 10)
        g.add_task("z", 15)
        pool, ids = make_pool(g)
        pool.place(ids["x"], 0, 0.0)
        pool.place(ids["y"], 0, 20.0)
        assert pool.est_insertion(ids["z"], 0) == 30.0


class TestBestProcessor:
    def test_prefers_data_locality(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        proc, start = pool.best_processor(ids["b"])
        assert proc == 0 and start == 10.0

    def test_fresh_wins_when_local_busy(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("blocker", 100)
        g.add_task("b", 10)
        g.add_edge("a", "b", 2)
        pool, ids = make_pool(g)
        pool.place(ids["a"], 0, 0.0)
        pool.place(ids["blocker"], 0, 10.0)
        proc, start = pool.best_processor(ids["b"])
        assert proc == 1 and start == 12.0

    def test_ties_prefer_existing(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_task("c", 1)
        pool, ids = make_pool(g)
        pool.place(ids["a"], 0, 0.0)
        pool.place(ids["b"], 1, 0.0)
        proc, start = pool.best_processor(ids["c"])
        # all options start at 10 (P0), 10 (P1), 0 (fresh): fresh wins here
        assert start == 0.0 and proc == 2


class TestBoundedPool:
    def test_cap_stops_growth(self, graph):
        pool, ids = make_pool(graph, max_processors=1)
        pool.place(ids["a"], 0, 0.0)
        assert not pool.can_grow
        proc, start = pool.best_processor(ids["b"])
        assert proc == 0
        proc, _ = pool.earliest_available_processor()
        assert proc == 0

    def test_cap_of_two(self, graph):
        pool, ids = make_pool(graph, max_processors=2)
        pool.place(ids["a"], 0, 0.0)
        assert pool.can_grow
        pool.place(ids["b"], 1, 17.0)
        assert not pool.can_grow


class TestEarliestAvailable:
    def test_fresh_processor_at_zero(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        proc, avail = pool.earliest_available_processor()
        assert proc == 1 and avail == 0.0

    def test_reuses_idle_existing(self, graph):
        pool, ids = make_pool(graph, max_processors=2)
        pool.place(ids["a"], 0, 0.0)
        pool.place(ids["b"], 1, 17.0)
        proc, avail = pool.earliest_available_processor()
        assert proc == 0 and avail == 10.0


def _brute_force_best(pool, i, *, insertion):
    """The full O(P*indeg) reference scan for best_processor: every
    candidate's start from :meth:`est_append`/:meth:`est_insertion`."""
    est = pool.est_insertion if insertion else pool.est_append
    if pool.can_grow:
        best_proc = pool.n_processors
        best_start = est(i, best_proc)
    else:
        best_proc = 0
        best_start = est(i, 0)
    for proc in range(pool.n_processors):
        start = est(i, proc)
        if start < best_start - 1e-12 or (
            abs(start - best_start) <= 1e-12 and proc < best_proc
        ):
            best_proc, best_start = proc, start
    return best_proc, best_start


class TestBestProcessorAgainstReference:
    """Property test: the O(P + indeg) fast path must agree everywhere with
    the brute-force per-processor re-scan it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("insertion", [False, True])
    @pytest.mark.parametrize("max_processors", [None, 3])
    def test_random_graphs(self, seed, insertion, max_processors):
        import numpy as np

        from repro.generation.random_dag import generate_pdg

        rng = np.random.default_rng(seed)
        g = generate_pdg(
            rng,
            n_tasks=int(rng.integers(10, 40)),
            band=int(rng.integers(0, 5)),
            anchor=int(rng.integers(2, 6)),
            weight_range=(20, 200),
        )
        pool, _ = make_pool(g, max_processors=max_processors)
        for i in pool.gi.topo_list:
            fast = pool.best_processor(i, insertion=insertion)
            brute = _brute_force_best(pool, i, insertion=insertion)
            assert fast == brute, f"divergence at id {i}: {fast} != {brute}"
            pool.place(i, *fast)
        pool.schedule.validate(g)

    def test_zero_weight_and_zero_comm_edges(self):
        g = TaskGraph()
        g.add_task("a", 0.0)
        g.add_task("b", 5.0)
        g.add_task("c", 0.0)
        g.add_task("d", 2.0)
        g.add_edge("a", "b", 0.0)
        g.add_edge("a", "c", 3.0)
        g.add_edge("b", "d", 0.0)
        g.add_edge("c", "d", 4.0)
        for insertion in (False, True):
            pool, _ = make_pool(g)
            for i in pool.gi.topo_list:
                fast = pool.best_processor(i, insertion=insertion)
                assert fast == _brute_force_best(pool, i, insertion=insertion)
                pool.place(i, *fast)

    def test_ties_prefer_low_existing_processor(self, graph):
        pool, ids = make_pool(graph)
        pool.place(ids["a"], 0, 0.0)
        # b and c both ready at 17 on fresh processors (finish 10 + comm 7/3
        # vs waiting on p0): check agreement and determinism of the tie rule
        for task in ("b", "c"):
            fast = pool.best_processor(ids[task])
            assert fast == _brute_force_best(pool, ids[task], insertion=False)
            pool.place(ids[task], *fast)


def _reference_earliest_available(pool):
    """The full scan for earliest_available_processor: the fresh processor
    (or processor 0 of a full bounded pool) is the incumbent, then every
    processor is compared under the 1e-12 tie rule."""
    if pool.can_grow:
        best_proc, best_avail = pool.n_processors, 0.0
    else:
        best_proc, best_avail = 0, pool.avail(0)
    for proc in range(pool.n_processors):
        avail = pool.avail(proc)
        if avail < best_avail - 1e-12 or (
            abs(avail - best_avail) <= 1e-12 and proc < best_proc
        ):
            best_proc, best_avail = proc, avail
    return best_proc, best_avail


class _ReferencePool(IndexedPool):
    """The pool with both processor choices made by the full scans."""

    __slots__ = ()

    def best_processor(self, i, *, insertion=False):
        return _brute_force_best(self, i, insertion=insertion)

    def earliest_available_processor(self):
        return _reference_earliest_available(self)


#: (module, class, constructor kwargs) of every scheduler on the pool.
_LIST_SCHEDULERS = [
    ("mcp", "MCPScheduler", {}),
    ("mcp", "MCPScheduler", {"insertion": False}),
    ("mh", "MHScheduler", {}),
    ("hu", "HuScheduler", {}),
    ("hlfet", "HLFETScheduler", {}),
    ("etf", "ETFScheduler", {}),
    ("dls", "DLSScheduler", {}),
]
_COUNTERS = ("mcp.insertion_attempts", "mcp.slot_insertions")


def _list_run(graph, module, cls, kwargs, max_processors, pool_class):
    mod = importlib.import_module(f"repro.schedulers.{module}")
    registry = get_registry()
    before = {k: registry.counter(k) for k in _COUNTERS}
    with mock.patch.object(mod, "IndexedPool", pool_class):
        schedule = getattr(mod, cls)(max_processors=max_processors, **kwargs).schedule(graph)
    counts = {k: registry.counter(k) - before[k] for k in _COUNTERS}
    rows = [list(p) for p in schedule.to_dict()["placements"]]
    return rows, [(r[2].hex(), r[3].hex()) for r in rows], counts


def _assert_list_schedulers_match(graph, max_processors):
    for module, cls, kwargs in _LIST_SCHEDULERS:
        got = _list_run(graph, module, cls, kwargs, max_processors, IndexedPool)
        ref = _list_run(graph, module, cls, kwargs, max_processors, _ReferencePool)
        assert got == ref, (cls, kwargs, max_processors)


class TestListSchedulersMatchFullScans:
    """MCP, MH, HU, HLFET, ETF and DLS give the same schedules and
    ``mcp.*`` counts with the pool's processor choice as with the full
    per-processor scans."""

    @given(g=tie_graphs(), max_processors=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_tie_graphs(self, g, max_processors):
        _assert_list_schedulers_match(g, max_processors)

    @pytest.mark.parametrize("max_processors", [None, 2])
    @pytest.mark.parametrize("g", [g for _, g in HUNT], ids=[n for n, _ in HUNT])
    def test_hunt_corpus(self, g, max_processors):
        _assert_list_schedulers_match(g, max_processors)


class TestEarliestAvailableAgainstReference:
    @pytest.mark.parametrize("w", [0.0, 5e-13, 1e-12, 1.5e-12, 1.0])
    @pytest.mark.parametrize("max_processors", [None, 2])
    def test_processor_free_within_tolerance(self, w, max_processors):
        """A processor free by 1e-12 ties with the fresh one at 0 and wins
        as the lower index; one free later loses to it."""
        g = TaskGraph()
        g.add_task("x", w)
        g.add_task("y", 1.0)
        pool, ids = make_pool(g, max_processors=max_processors)
        pool.place(ids["x"], 0, 0.0)
        got = pool.earliest_available_processor()
        assert got == _reference_earliest_available(pool)
        assert got == ((0, w) if w <= 1e-12 else (1, 0.0))

    @given(
        g=tie_graphs(),
        max_processors=st.sampled_from([None, 1, 2, 3]),
        picks=st.lists(st.integers(0, 8), max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_call(self, g, max_processors, picks):
        """Each call equals the full scan, on pools whose processors free at
        0 (zero-weight tasks) as well as later."""
        pool, _ = make_pool(g, max_processors=max_processors)
        picks = iter(picks)
        for i in pool.gi.topo_list:
            got = pool.earliest_available_processor()
            assert got == _reference_earliest_available(pool)
            # place on the chosen processor or, sometimes, another one
            proc = got[0]
            pick = next(picks, None)
            if pick is not None and pool.n_processors:
                proc = min(pick, pool.n_processors - (0 if pool.can_grow else 1))
            pool.place(i, proc, pool.est_append(i, proc))
