"""Tests for the parallel suite runner (repro.experiments.parallel)."""

from __future__ import annotations

import pytest

from repro import TaskGraph, get_scheduler
from repro.experiments.parallel import (
    default_chunk_size,
    resolve_jobs,
    run_suite_parallel,
)
from repro.experiments.persistence import save_results
from repro.experiments.runner import PAPER_HEURISTIC_ORDER, run_suite
from repro.generation.suites import SuiteCell, generate_suite
from repro.obs.log import ProgressStats
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.schedulers.base import Scheduler


@pytest.fixture(scope="module")
def small_suite():
    cells = [SuiteCell(0, 2, (20, 100)), SuiteCell(3, 4, (20, 200))]
    return list(generate_suite(graphs_per_cell=3, cells=cells, n_tasks_range=(15, 30)))


@pytest.fixture(scope="module")
def serial_results(small_suite):
    return run_suite(small_suite)


class TestResolveJobs:
    def test_none_means_all_cpus(self):
        assert resolve_jobs(None) >= 1

    def test_passthrough(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)

    def test_chunk_size_bounds(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(240, 4) == 15
        assert default_chunk_size(100000, 2) == 32  # capped


class TestDeterminism:
    def test_parallel_equals_serial(self, small_suite, serial_results):
        parallel = run_suite_parallel(small_suite, jobs=2)
        assert parallel == serial_results

    def test_byte_identical_serialization(
        self, small_suite, serial_results, tmp_path
    ):
        parallel = run_suite(small_suite, jobs=2)
        save_results(serial_results, tmp_path / "serial.json")
        save_results(parallel, tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()

    def test_suite_order_preserved(self, small_suite):
        # chunk_size=1 maximizes out-of-order completion opportunities
        parallel = run_suite_parallel(small_suite, jobs=2, chunk_size=1)
        assert [gr.graph_id for gr in parallel] == [
            sg.graph_id for sg in small_suite
        ]

    def test_all_heuristics_present(self, small_suite):
        for gr in run_suite_parallel(small_suite, jobs=2):
            assert set(gr.results) == set(PAPER_HEURISTIC_ORDER)


class TestDispatchAndFallback:
    def test_run_suite_jobs_1_is_serial(self, small_suite, serial_results):
        assert run_suite(small_suite, jobs=1) == serial_results

    def test_jobs_none_uses_all_cpus(self, small_suite, serial_results):
        assert run_suite(small_suite, jobs=None) == serial_results

    def test_invalid_jobs_rejected(self, small_suite):
        with pytest.raises(ValueError):
            run_suite(small_suite, jobs=0)

    def test_unpicklable_scheduler_falls_back_to_serial(self, small_suite):
        class UnpicklableHu(Scheduler):
            name = "HU"  # delegate: results must match the real HU

            def __init__(self):
                self._impl = get_scheduler("HU")
                self._capture = lambda: None  # lambdas cannot be pickled

            def _schedule(self, graph):
                return self._impl._schedule(graph)

        results = run_suite_parallel(small_suite, [UnpicklableHu()], jobs=2)
        expected = run_suite(small_suite, [get_scheduler("HU")])
        assert results == expected

    def test_single_graph_suite_runs_serially(self, small_suite):
        results = run_suite_parallel(small_suite[:1], jobs=4)
        assert results == run_suite(small_suite[:1])


class TestObsMerging:
    def test_worker_metrics_merged_into_parent(self, small_suite):
        with use_registry(MetricsRegistry()) as reg:
            run_suite_parallel(small_suite, jobs=2)
        n = len(small_suite)
        assert reg.counter("suite.graphs") == n
        assert reg.counter("suite.parallel.runs") == 1
        assert reg.counter("suite.parallel.chunks") >= 2
        for name in PAPER_HEURISTIC_ORDER:
            assert reg.timer_stats(f"scheduler.{name}").count == n
        # algorithm counters flow back too (every run zeroes some DSC edges)
        assert reg.counter("dsc.edge_zeroings") > 0

    def test_parent_trace_collects_worker_spans(self, small_suite):
        with use_tracer(Tracer(enabled=True)) as tracer:
            run_suite_parallel(small_suite, jobs=2)
        graph_spans = [e for e in tracer.spans() if e["name"].startswith("graph.")]
        assert len(graph_spans) == len(small_suite)
        # worker events are tagged with the real worker pid
        assert all(e["pid"] != 0 for e in graph_spans)

    def test_disabled_tracer_stays_empty(self, small_suite):
        with use_tracer(Tracer(enabled=False)) as tracer:
            run_suite_parallel(small_suite, jobs=2)
        assert len(tracer) == 0


class TestProgress:
    def test_called_once_per_graph_with_increasing_count(self, small_suite):
        seen = []
        run_suite_parallel(
            small_suite, jobs=2, progress=lambda i, gr: seen.append(i)
        )
        assert seen == list(range(1, len(small_suite) + 1))

    def test_stats_callback(self, small_suite):
        stats_seen = []

        def progress(done, gr, stats):
            stats_seen.append(stats)

        run_suite_parallel(small_suite, jobs=2, progress=progress)
        assert len(stats_seen) == len(small_suite)
        final = stats_seen[-1]
        assert isinstance(final, ProgressStats)
        assert final.done == final.total == len(small_suite)
        assert final.elapsed > 0 and final.rate > 0


class TestPickling:
    def test_taskgraph_pickle_roundtrip(self):
        import pickle

        g = TaskGraph()
        g.add_task("a", 3)
        g.add_task(("tuple", 1), 2)
        g.add_edge("a", ("tuple", 1), 5)
        g2 = pickle.loads(pickle.dumps(g))
        assert g2 == g
        assert g2.in_degree(("tuple", 1)) == 1
        assert g2.edge_weight("a", ("tuple", 1)) == 5.0
        g2.validate()

    def test_pickle_drops_memo_table(self):
        import pickle

        g = TaskGraph()
        g.add_task("a")
        g.add_task("b")
        g.add_edge("a", "b")
        g.topological_order()  # populate the memo
        g2 = pickle.loads(pickle.dumps(g))
        assert not g2.has_cached("topological_order")
        assert g2.topological_order() == ["a", "b"]
