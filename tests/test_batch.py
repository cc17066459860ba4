"""Batched SoA analysis: equivalence, priming, fallback, byte identity.

The batch layer's whole contract is "invisible except for speed": every
number it primes must be *bitwise* equal to what the per-graph kernels
would compute lazily, with ``REPRO_BATCH`` on or off, and a suite run
with batching on must serialize byte-identically to one with it off.
CI's ``batch-smoke`` job runs this file twice — once with
``REPRO_BATCH=1`` and once with ``=0`` — so the assertions here are
written against explicit ``use_batch`` toggles, never against the
ambient environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TaskGraph
from repro.core import batch as batch_mod
from repro.core.analysis import alap_times, b_levels, hu_levels, t_levels
from repro.core.batch import (
    GraphBatch,
    batch_analyze,
    batch_enabled,
    numpy_available,
    use_batch,
)
from repro.core.exceptions import CycleError, GraphError
from repro.core.kernels import GraphIndex, graph_index
from repro.core.metrics import (
    anchor_out_degree,
    granularity,
    granularity_band,
    node_weight_range,
)
from repro.generation.random_dag import generate_pdg
from repro.obs.metrics import MetricsRegistry, use_registry

from conftest import serialized

SEED = 19940815


# ----------------------------------------------------------------------
# graph corpus: seeded testbed sweep across classes and sizes + edge cases
# ----------------------------------------------------------------------
def _testbed_graphs() -> list[tuple[str, TaskGraph]]:
    graphs = []
    for band in range(5):
        for anchor in (2, 5):
            for n, wr in [(8, (1, 10)), (40, (3, 200)), (90, (20, 50))]:
                rng = np.random.default_rng(SEED + band * 1000 + anchor * 10 + n)
                g = generate_pdg(
                    rng, n_tasks=n, band=band, anchor=anchor, weight_range=wr
                )
                graphs.append((f"band{band}-a{anchor}-n{n}", g))
    return graphs


def _edge_case_graphs() -> list[tuple[str, TaskGraph]]:
    empty = TaskGraph()

    single = TaskGraph()
    single.add_task("only", 7)

    no_edges = TaskGraph()
    for i in range(4):
        no_edges.add_task(i, 2.5 * (i + 1))

    chain = TaskGraph()
    for i in range(6):
        chain.add_task(i, 5 + i)
        if i:
            chain.add_edge(i - 1, i, 2)

    zero_comm = TaskGraph()
    for t in "abcd":
        zero_comm.add_task(t, 10)
    zero_comm.add_edge("a", "b", 0)
    zero_comm.add_edge("a", "c", 5)
    zero_comm.add_edge("b", "d", 0)
    zero_comm.add_edge("c", "d", 0)

    return [
        ("empty", empty),
        ("single", single),
        ("no-edges", no_edges),
        ("chain", chain),
        ("zero-cost-edges", zero_comm),
    ]


CORPUS = _testbed_graphs() + _edge_case_graphs()
IDS = [name for name, _ in CORPUS]
GRAPHS = [g for _, g in CORPUS]


def _reference_levels(g: TaskGraph) -> dict:
    """Per-graph analysis on a fresh copy, never primed by a batch: the
    lazy values the batch must match bit for bit."""
    ref = g.copy()
    return {
        "t": t_levels(ref, communication=True),
        "t0": t_levels(ref, communication=False),
        "b": b_levels(ref, communication=True),
        "hu": hu_levels(ref),
        "alap": alap_times(ref, communication=True),
    }


# ----------------------------------------------------------------------
# toggles and guards
# ----------------------------------------------------------------------
class TestToggles:
    def test_numpy_available_here(self):
        assert numpy_available()

    def test_use_batch_nests_and_restores(self):
        initial = batch_mod._enabled
        with use_batch(True):
            assert batch_enabled()
            with use_batch(False):
                assert not batch_enabled()
                with use_batch(True):
                    assert batch_enabled()
                assert not batch_enabled()
        assert batch_mod._enabled == initial

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_np", None)
        assert not numpy_available()
        with use_batch(True):
            assert not batch_enabled()
            assert batch_analyze([GRAPHS[0].copy()]) == 0
        with pytest.raises(RuntimeError):
            GraphBatch([])


# ----------------------------------------------------------------------
# pooled level sweeps: bitwise equal to the per-graph kernels
# ----------------------------------------------------------------------
class TestBatchLevelEquivalence:
    @pytest.fixture(scope="class")
    def pooled(self):
        indexes = [GraphIndex(g) for g in GRAPHS]
        return GraphBatch(indexes), indexes

    def test_pool_shape(self, pooled):
        batch, indexes = pooled
        assert batch.n_graphs == len(GRAPHS)
        assert batch.n_nodes == sum(gi.n for gi in indexes)
        assert batch.n_edges == sum(gi.m for gi in indexes)

    @pytest.mark.parametrize(
        "accessor, key",
        [
            (lambda b: b.t_levels(True), "t"),
            (lambda b: b.t_levels(False), "t0"),
            (lambda b: b.b_levels(True), "b"),
            (lambda b: b.b_levels(False), "hu"),
            (lambda b: b.alap(True), "alap"),
        ],
        ids=["t", "t-nocomm", "b", "hu", "alap"],
    )
    def test_levels_bitwise_equal(self, pooled, accessor, key):
        batch, indexes = pooled
        per_graph = batch.per_graph(accessor(batch))
        for k, (name, g) in enumerate(CORPUS):
            ref = _reference_levels(g)[key]
            got = dict(zip(indexes[k].tasks, per_graph[k]))
            assert got == ref, name  # exact: == on floats, not approx

    def test_critical_path_lengths(self, pooled):
        batch, _ = pooled
        cp = batch.critical_path_lengths(True)
        for k, (name, g) in enumerate(CORPUS):
            ref = _reference_levels(g)["b"]
            expect = max(ref.values(), default=0.0)
            assert cp[k] == expect, name

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_single_graph_batch_matches_pooled(self, pooled, g):
        batch, indexes = pooled
        k = GRAPHS.index(g)
        solo = GraphBatch([indexes[k]])
        assert solo.per_graph(solo.t_levels(True))[0] == batch.per_graph(
            batch.t_levels(True)
        )[k]
        assert solo.per_graph(solo.b_levels(True))[0] == batch.per_graph(
            batch.b_levels(True)
        )[k]
        assert solo.per_graph(solo.alap(True))[0] == batch.per_graph(
            batch.alap(True)
        )[k]

    def test_empty_batch(self):
        batch = GraphBatch([])
        assert batch.n_graphs == batch.n_nodes == batch.n_edges == 0
        assert batch.per_graph(batch.t_levels(True)) == []
        assert batch.per_graph(batch.b_levels(True)) == []
        assert batch.granularities() == []
        assert batch.serial_times() == []
        assert batch.weight_ranges() == []
        assert batch_analyze([]) == 0


# ----------------------------------------------------------------------
# classification metrics (paper section 3)
# ----------------------------------------------------------------------
class TestClassificationEquivalence:
    @pytest.fixture(scope="class")
    def pooled(self):
        return GraphBatch([GraphIndex(g) for g in GRAPHS])

    def test_granularities(self, pooled):
        got = pooled.granularities()
        for k, (name, g) in enumerate(CORPUS):
            try:
                expect = granularity(g.copy())  # fresh copy: unmemoized
            except GraphError:
                expect = None
            assert got[k] == expect, name

    def test_granularity_bands(self, pooled):
        grans = pooled.granularities()
        bands = pooled.granularity_bands()
        for gr, band in zip(grans, bands):
            assert band == (granularity_band(gr) if gr is not None else None)

    @pytest.mark.parametrize("include_sinks", [False, True])
    def test_anchors(self, pooled, include_sinks):
        got = pooled.anchors(include_sinks=include_sinks)
        for k, (name, g) in enumerate(CORPUS):
            try:
                expect = anchor_out_degree(g, include_sinks=include_sinks)
            except GraphError:
                expect = None
            assert got[k] == expect, name

    def test_weight_ranges(self, pooled):
        got = pooled.weight_ranges()
        for k, (name, g) in enumerate(CORPUS):
            try:
                expect = node_weight_range(g)
            except GraphError:
                expect = None
            assert got[k] == expect, name

    def test_serial_times(self, pooled):
        got = pooled.serial_times()
        for k, (name, g) in enumerate(CORPUS):
            assert got[k] == g.copy().serial_time(), name  # bitwise ==


# ----------------------------------------------------------------------
# batch_analyze: memo priming, skip logic, counters
# ----------------------------------------------------------------------
class TestBatchAnalyze:
    def test_primes_the_kernel_memo_keys(self):
        g = GRAPHS[2].copy()
        with use_batch(True):
            assert batch_analyze([g]) == 1
        for key in batch_mod._LEVEL_KEYS + (batch_mod._KEY_SERIAL,):
            assert g.has_cached(key)

    def test_primed_values_equal_lazy_values(self):
        g = GRAPHS[3]
        primed = g.copy()
        with use_batch(True):
            batch_analyze([primed])
            ref = _reference_levels(g)
            assert t_levels(primed, communication=True) == ref["t"]
            assert b_levels(primed, communication=True) == ref["b"]
            assert hu_levels(primed) == ref["hu"]
            assert alap_times(primed, communication=True) == ref["alap"]

    def test_dedup_and_already_primed_counters(self):
        g = GRAPHS[4].copy()
        registry = MetricsRegistry()
        with use_registry(registry), use_batch(True):
            assert batch_analyze([g, g, g]) == 1  # deduped by identity
            assert batch_analyze([g]) == 0  # memos already primed
        counters = registry.counters()
        assert counters["batch.batches"] == 1
        assert counters["batch.graphs"] == 1
        assert counters["batch.already_primed"] == 1
        assert counters["batch.nodes"] == g.n_tasks

    def test_compile_reuses_cached_index(self):
        # Satellite: batch compile must go through the graph_index LRU, so
        # a graph whose index is already compiled is a cache hit, not a
        # recompile.
        g = GRAPHS[5].copy()
        registry = MetricsRegistry()
        with use_registry(registry), use_batch(True):
            gi = graph_index(g)  # pre-compile
            batch_analyze([g])
            assert graph_index(g) is gi  # still the same compiled object
        counters = registry.counters()
        assert counters.get("kernels.cache.misses", 0) == 1  # the pre-compile
        assert counters.get("kernels.cache.hits", 0) >= 1

    def test_cyclic_graph_skipped_not_raised(self):
        cyc = TaskGraph()
        cyc.add_task("a", 1)
        cyc.add_task("b", 1)
        cyc.add_edge("a", "b", 1)
        cyc.add_edge("b", "a", 1)
        ok = GRAPHS[1].copy()
        with use_batch(True):
            assert batch_analyze([cyc, ok]) == 1  # cyclic graph skipped
            with pytest.raises(CycleError):
                t_levels(cyc)  # the on-demand path still reports it

    def test_cyclic_skip_is_surfaced_in_report_and_counter(self):
        # The skip must not be silent: the report names the skipped input
        # positions and the registry counts them, while the return value
        # still compares as the analyzed count (it is an int subclass).
        def _cycle() -> TaskGraph:
            cyc = TaskGraph()
            cyc.add_task("a", 1)
            cyc.add_task("b", 1)
            cyc.add_edge("a", "b", 1)
            cyc.add_edge("b", "a", 1)
            return cyc

        ok1, ok2 = GRAPHS[1].copy(), GRAPHS[2].copy()
        registry = MetricsRegistry()
        with use_registry(registry), use_batch(True):
            report = batch_analyze([_cycle(), ok1, _cycle(), ok2])
        assert isinstance(report, batch_mod.BatchReport)
        assert report == 2
        assert report.skipped == (0, 2)
        assert registry.counters()["batch.skipped_cyclic"] == 2

    def test_all_cyclic_report(self):
        def _cycle() -> TaskGraph:
            cyc = TaskGraph()
            cyc.add_task("a", 1)
            cyc.add_task("b", 1)
            cyc.add_edge("a", "b", 1)
            cyc.add_edge("b", "a", 1)
            return cyc

        with use_batch(True):
            report = batch_analyze([_cycle(), _cycle()])
        assert report == 0
        assert report.skipped == (0, 1)

    def test_report_when_disabled_or_empty(self):
        g = GRAPHS[3].copy()
        with use_batch(False):
            report = batch_analyze([g])
        assert report == 0 and report.skipped == ()
        with use_batch(True):
            report = batch_analyze([])
        assert report == 0 and report.skipped == ()

    def test_disabled_is_a_noop(self):
        g = GRAPHS[6].copy()
        with use_batch(False):
            assert batch_analyze([g]) == 0
        for key in batch_mod._LEVEL_KEYS:
            assert not g.has_cached(key)

    def test_mutation_invalidates_primed_memos(self):
        g = GRAPHS[7].copy()
        with use_batch(True):
            batch_analyze([g])
            assert g.has_cached(batch_mod._KEY_T)
            g.add_task("fresh", 1.0)
            assert not g.has_cached(batch_mod._KEY_T)
            # re-analyzing after mutation primes the new version
            assert batch_analyze([g]) == 1
            ref = _reference_levels(g)
            assert t_levels(g, communication=True) == ref["t"]


# ----------------------------------------------------------------------
# REPRO_BATCH on and off: one answer
# ----------------------------------------------------------------------
class TestFallbackMatrix:
    @pytest.mark.parametrize("batch_on", [False, True], ids=["b0", "b1"])
    def test_batch_on_and_off_bit_identical(self, batch_on):
        results = []
        for name, g in CORPUS[:8] + _edge_case_graphs():
            work = g.copy()
            with use_batch(batch_on):
                batch_analyze([work])  # no-op unless batching is on
                entry = {
                    "t": t_levels(work, communication=True),
                    "b": b_levels(work, communication=True),
                    "hu": hu_levels(work),
                    "alap": alap_times(work, communication=True),
                    "serial": work.serial_time(),
                }
                try:
                    entry["gran"] = granularity(work)
                except GraphError:
                    entry["gran"] = None
            results.append((name, entry))
        for name, entry in results:
            _, g = next(c for c in CORPUS if c[0] == name)
            ref = _reference_levels(g)
            assert entry["t"] == ref["t"], name
            assert entry["b"] == ref["b"], name
            assert entry["hu"] == ref["hu"], name
            assert entry["alap"] == ref["alap"], name


# ----------------------------------------------------------------------
# suite-runner byte identity, serial and --jobs 2
# ----------------------------------------------------------------------
class TestSuiteByteIdentity:
    @pytest.fixture(scope="class")
    def suite_and_scheds(self):
        from repro.generation.suites import generate_suite
        from repro.schedulers import get_scheduler

        suite = list(
            generate_suite(graphs_per_cell=1, seed=SEED, n_tasks_range=(10, 25))
        )
        scheds = [get_scheduler(n) for n in ("DSC", "MCP", "HU")]
        return suite, scheds

    @staticmethod
    def _fresh(suite):
        from repro.generation.suites import SuiteGraph

        return [
            SuiteGraph(cell=sg.cell, index=sg.index, graph=sg.graph.copy())
            for sg in suite
        ]

    def _run(self, suite, scheds, *, batch_on, jobs=1):
        from repro.experiments.runner import run_suite

        with use_batch(batch_on):
            results = run_suite(self._fresh(suite), scheds, seed=SEED, jobs=jobs)
        return serialized(results)

    def test_serial_on_off_byte_identical(self, suite_and_scheds):
        suite, scheds = suite_and_scheds
        off = self._run(suite, scheds, batch_on=False)
        on = self._run(suite, scheds, batch_on=True)
        assert on == off

    def test_jobs2_byte_identical_to_serial_unbatched(self, suite_and_scheds):
        # Worker processes decide batching from their own environment, so
        # this holds whichever REPRO_BATCH the CI matrix leg exports.
        suite, scheds = suite_and_scheds
        ref = self._run(suite, scheds, batch_on=False)
        par = self._run(suite, scheds, batch_on=True, jobs=2)
        assert par == ref
