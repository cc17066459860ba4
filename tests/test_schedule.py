"""Unit tests for the schedule model and its validation (paper section 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Schedule, ScheduledTask, ScheduleError, TaskGraph, get_scheduler
from repro.experiments.faults import FaultInjectingScheduler, graph_key

from conftest import task_graphs, tie_graphs


@pytest.fixture
def ab_graph():
    g = TaskGraph()
    g.add_task("a", 10)
    g.add_task("b", 20)
    g.add_edge("a", "b", 5)
    return g


class TestScheduledTask:
    def test_fields(self):
        st = ScheduledTask("a", 0, 1.0, 3.0)
        assert st.finish == 3.0

    def test_negative_processor(self):
        with pytest.raises(ScheduleError):
            ScheduledTask("a", -1, 0.0, 1.0)

    def test_negative_start(self):
        with pytest.raises(ScheduleError):
            ScheduledTask("a", 0, -1.0, 1.0)

    def test_finish_before_start(self):
        with pytest.raises(ScheduleError):
            ScheduledTask("a", 0, 5.0, 1.0)


class TestScheduleBasics:
    def test_place_and_query(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 15.0, 20.0)
        assert s.processor_of("a") == 0
        assert s.start("b") == 15.0
        assert s.finish("b") == 35.0
        assert s.makespan == 35.0
        assert s.n_processors == 2
        assert len(s) == 2
        assert "a" in s

    def test_duplication_forbidden(self):
        s = Schedule()
        s.place("a", 0, 0.0, 1.0)
        with pytest.raises(ScheduleError):
            s.place("a", 1, 5.0, 1.0)

    def test_missing_task_lookup(self):
        with pytest.raises(ScheduleError):
            Schedule()["nope"]

    def test_empty_makespan(self):
        assert Schedule().makespan == 0.0

    def test_tasks_on_sorted(self):
        s = Schedule()
        s.place("b", 0, 10.0, 5.0)
        s.place("a", 0, 0.0, 5.0)
        assert [p.task for p in s.tasks_on(0)] == ["a", "b"]

    def test_clusters(self):
        s = Schedule()
        s.place("a", 0, 0.0, 5.0)
        s.place("b", 2, 0.0, 5.0)
        s.place("c", 0, 5.0, 5.0)
        assert s.clusters() == [["a", "c"], ["b"]]


class TestValidation:
    def test_valid_two_proc(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 15.0, 20.0)  # 10 finish + 5 comm
        s.validate(ab_graph)
        assert s.is_valid(ab_graph)

    def test_valid_same_proc_no_comm(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 0, 10.0, 20.0)
        s.validate(ab_graph)

    def test_comm_violation(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 12.0, 20.0)  # message lands at 15
        with pytest.raises(ScheduleError, match="arrives"):
            s.validate(ab_graph)

    def test_precedence_violation_same_proc(self, ab_graph):
        s = Schedule()
        s.place("b", 0, 0.0, 20.0)
        s.place("a", 0, 20.0, 10.0)
        with pytest.raises(ScheduleError):
            s.validate(ab_graph)

    def test_overlap_detected(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 0, 5.0, 10.0)
        with pytest.raises(ScheduleError, match="overlap"):
            s.validate(g)

    def test_missing_task(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        with pytest.raises(ScheduleError, match="mismatch"):
            s.validate(ab_graph)

    def test_extra_task(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 0, 10.0, 20.0)
        s.place("ghost", 1, 0.0, 1.0)
        with pytest.raises(ScheduleError, match="mismatch"):
            s.validate(ab_graph)

    def test_wrong_duration(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 11.0)
        s.place("b", 0, 11.0, 20.0)
        with pytest.raises(ScheduleError, match="weight"):
            s.validate(ab_graph)

    def test_is_valid_false(self, ab_graph):
        assert not Schedule().is_valid(ab_graph)


def _reference_validate(schedule: Schedule, graph: TaskGraph) -> None:
    """The P x n validator: one full pass over the placements per
    processor (:meth:`Schedule.tasks_on`)."""
    placed = {p.task for p in schedule}
    tasks = set(graph.tasks())
    if placed != tasks:
        missing = tasks - placed
        extra = placed - tasks
        raise ScheduleError(
            f"task set mismatch: missing={sorted(map(repr, missing))}, "
            f"extra={sorted(map(repr, extra))}"
        )
    for p in schedule:
        expect = graph.weight(p.task)
        if abs((p.finish - p.start) - expect) > 1e-9:
            raise ScheduleError(
                f"task {p.task!r} runs {p.finish - p.start}, weight is {expect}"
            )
    for proc in schedule.processors:
        row = schedule.tasks_on(proc)
        for a, b in zip(row, row[1:]):
            if b.start < a.finish - 1e-9:
                raise ScheduleError(
                    f"tasks {a.task!r} and {b.task!r} overlap on processor {proc}"
                )
    for u, v in graph.edges():
        pu, pv = schedule[u], schedule[v]
        arrival = pu.finish
        if pu.processor != pv.processor:
            arrival += graph.edge_weight(u, v)
        if pv.start < arrival - 1e-9:
            raise ScheduleError(
                f"task {v!r} starts at {pv.start} before its input from "
                f"{u!r} arrives at {arrival}"
            )


def _verdict(check, schedule: Schedule, graph: TaskGraph) -> str | None:
    try:
        check(schedule, graph)
    except ScheduleError as exc:
        return str(exc)
    return None


def _same_verdict(schedule: Schedule, graph: TaskGraph) -> str | None:
    got = _verdict(Schedule.validate, schedule, graph)
    assert got == _verdict(_reference_validate, schedule, graph)
    return got


def _rebuilt(rows) -> Schedule:
    s = Schedule()
    for task, proc, start, finish in rows:
        s.place(task, proc, start, finish - start)
    return s


class TestValidatorMatchesPerProcessorScan:
    """The one-pass validator raises what the P x n scan raises, with the
    same message, checks in the same order."""

    @pytest.fixture
    def graph(self):
        g = TaskGraph()
        for t, w in [("a", 10), ("b", 20), ("c", 5), ("d", 5)]:
            g.add_task(t, w)
        g.add_edge("a", "b", 5)
        g.add_edge("a", "c", 2)
        g.add_edge("c", "d", 1)
        return g

    def _valid_rows(self, graph):
        rows = [
            [p.task, p.processor, p.start, p.finish]
            for p in get_scheduler("MCP").schedule(graph)
        ]
        assert _same_verdict(_rebuilt(rows), graph) is None
        return rows

    def test_missing_task(self, graph):
        rows = self._valid_rows(graph)[:-1]
        assert "missing=" in _same_verdict(_rebuilt(rows), graph)

    def test_extra_task(self, graph):
        rows = self._valid_rows(graph) + [["ghost", 0, 100.0, 101.0]]
        assert "missing=[], extra=" in _same_verdict(_rebuilt(rows), graph)

    def test_wrong_duration(self, graph):
        rows = self._valid_rows(graph)
        rows[1][3] += 1.0
        assert "weight is" in _same_verdict(_rebuilt(rows), graph)

    def test_overlap(self, graph):
        rows = [["a", 0, 0.0, 10.0], ["b", 1, 15.0, 35.0],
                ["c", 0, 10.0, 15.0], ["d", 0, 12.0, 17.0]]
        assert "overlap on processor 0" in _same_verdict(_rebuilt(rows), graph)

    def test_first_overlap_by_processor_then_start(self, graph):
        """Overlaps on two processors: both report processor 0's first
        pair, though processor 1's tasks were placed first."""
        rows = [["b", 1, 15.0, 35.0], ["d", 1, 16.0, 21.0],
                ["a", 0, 0.0, 10.0], ["c", 0, 5.0, 10.0]]
        msg = _same_verdict(_rebuilt(rows), graph)
        assert msg == "tasks 'a' and 'c' overlap on processor 0"

    def test_early_start(self, graph):
        rows = [["a", 0, 0.0, 10.0], ["b", 1, 12.0, 32.0],
                ["c", 0, 10.0, 15.0], ["d", 0, 15.0, 20.0]]
        assert "before its input" in _same_verdict(_rebuilt(rows), graph)

    def test_fault_injected_wrong_schedule(self, paper_example):
        bad = FaultInjectingScheduler(
            "MCP", fail=[graph_key(paper_example)], mode="wrong"
        ).schedule(paper_example)
        assert "weight is" in _same_verdict(bad, paper_example)

    @given(
        g=st.one_of(task_graphs(max_tasks=10), tie_graphs(max_tasks=10)),
        name=st.sampled_from(["MCP", "HU", "DSC", "ETF"]),
        edits=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.sampled_from(["proc", "shift", "stretch", "drop"]),
                st.sampled_from([0, 1, 2]),
                st.sampled_from([-5.0, -1.0, 0.5, 3.0]),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_corrupted_schedules(self, g, name, edits):
        rows = [
            [p.task, p.processor, p.start, p.finish]
            for p in get_scheduler(name).schedule(g)
        ]
        for k, kind, proc, delta in edits:
            if not rows:
                break
            row = rows[k % len(rows)]
            if kind == "proc":
                row[1] = proc
            elif kind == "shift":
                row[2] = max(0.0, row[2] + delta)
                row[3] = row[2] + g.weight(row[0])
            elif kind == "stretch":
                row[3] = max(row[2], row[3] + delta)
            else:
                rows.remove(row)
        _same_verdict(_rebuilt(rows), g)


class TestMeasures:
    def test_speedup_efficiency(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 0, 10.0, 20.0)
        assert s.speedup(ab_graph) == pytest.approx(1.0)
        assert s.efficiency(ab_graph) == pytest.approx(1.0)

    def test_speedup_parallel(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 0.0, 10.0)
        assert s.speedup(g) == pytest.approx(2.0)
        assert s.efficiency(g) == pytest.approx(1.0)

    def test_busy_fraction(self):
        g = TaskGraph()
        g.add_task("a", 10)
        s = Schedule()
        s.place("a", 0, 10.0, 10.0)
        assert s.busy_fraction() == pytest.approx(0.5)

    def test_busy_fraction_empty(self):
        assert Schedule().busy_fraction() == 0.0


class TestGantt:
    def test_contains_processors(self):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 0.0, 10.0)
        txt = s.to_gantt()
        assert "P0" in txt and "P1" in txt

    def test_empty(self):
        assert "empty" in Schedule().to_gantt()

    def test_repr(self):
        s = Schedule()
        s.place("a", 0, 0.0, 2.0)
        assert "makespan=2" in repr(s)


class TestSerialization:
    def test_round_trip(self):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place(("t", 1), 1, 5.0, 3.0)
        import json

        back = Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.makespan == s.makespan
        assert back.processor_of(("t", 1)) == 1
        assert back.start("a") == 0.0

    def test_round_trip_preserves_validity(self, ab_graph):
        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 1, 15.0, 20.0)
        back = Schedule.from_dict(s.to_dict())
        back.validate(ab_graph)
