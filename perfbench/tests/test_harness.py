import json
import math

from perfbench import harness
from perfbench.harness import Round


def _round(index, counts, output="out", ops=10, seconds=1.0, **kw):
    kw.setdefault("host_ms", harness.REF_HOST_MS)
    return Round(index, ops, seconds, counts, output, **kw)


def test_repeats_must_reproduce_counts_and_output():
    rounds = [
        _round(0, {"a": 1}),
        _round(0, {"a": 1}),
        _round(0, {"a": 2}),
        _round(0, {"a": 1}, output="other"),
    ]
    problems = harness._repeat_problems(rounds)
    assert len(problems) == 2
    assert "a = 2" in problems[0]
    assert "output" in problems[1]


def test_ledger_flags_a_run_whose_counts_differ(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "STATE", tmp_path)
    first = {0: _round(0, {"scheduler.DSC.calls": 5})}
    assert harness._ledger_problems("suite", 4, first, "c0de") == []
    (entry,) = (tmp_path / "counts").rglob("suite-4-0.json")
    assert json.loads(entry.read_text())["counts"] == {"scheduler.DSC.calls": 5}
    assert harness._ledger_problems("suite", 4, first, "c0de") == []
    moved = {0: _round(0, {"scheduler.DSC.calls": 6})}
    assert len(harness._ledger_problems("suite", 4, moved, "c0de")) == 1
    # Another seed has its own entry.
    assert harness._ledger_problems("suite", 5, moved, "c0de") == []


def test_ledger_never_compares_runs_of_other_code(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "STATE", tmp_path)
    assert harness._ledger_problems("suite", 4, {0: _round(0, {"a": 5})}, "parent") == []
    # Code that does less work, or counts under new names, is not a failure.
    assert harness._ledger_problems("suite", 4, {0: _round(0, {"b": 1})}, "change") == []
    assert len(harness._ledger_problems("suite", 4, {0: _round(0, {"b": 2})}, "change")) == 1


def test_code_digest_covers_the_sources_under_test(tmp_path, monkeypatch):
    for rel in ("src/repro/a.py", "perfbench/b.py", "perfbench/tests/test_c.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    base = harness.code_digest()
    (tmp_path / "perfbench/tests/test_c.py").write_text("x = 2\n")
    assert harness.code_digest() == base
    (tmp_path / "src/repro/a.py").write_text("x = 2\n")
    assert harness.code_digest() != base


def test_layer_metrics_per_op_coverage_and_overhead():
    traced = [
        _round(0, {}, ops=10, seconds=2.0, traced=True,
               self_s={"sched.DSC": 1.0, "generation": 0.5, "not.a.layer": 0.4},
               calls={"sched.DSC": 10}),
        _round(0, {}, ops=10, seconds=2.0, traced=True,
               self_s={"sched.DSC": 1.1, "generation": 0.5, "not.a.layer": 0.4},
               calls={"sched.DSC": 10}),
    ]
    untraced = [_round(0, {}, ops=20, seconds=3.0)]
    out = harness.layer_metrics(traced, untraced)
    assert out["sched.DSC.ms"] == 2.1e3 / 20
    assert out["sched.DSC.calls"] == 1.0
    assert out["generation.ms"] == 1.0e3 / 20
    # Only the named layers count towards coverage.
    assert out["coverage"] == (2.1 + 1.0) / 4.0
    assert math.isclose(out["trace.overhead"], 1.0 - (20 / 4.0) / (20 / 3.0))


def test_calibration_is_a_positive_time():
    assert harness.calibrate(repeats=1) > 0.0


class _Counting(harness.Workload):
    name = "counting"
    inputs = 2

    def __init__(self):
        super().__init__(seed=0, workdir=None, trace=True)
        self.calls = []

    def round(self, index, recorder):
        self.calls.append((index, recorder is not None))
        return _round(index, {"n": index}).capture(recorder)


def test_traced_run_runs_each_input_untraced_then_traced(monkeypatch):
    monkeypatch.setattr(harness, "calibrate", lambda repeats=5, cpus=None: 30.0)
    workload = _Counting()
    rounds = harness._timed_phase(workload, seconds=0.0, trace=True)
    cycle = [(0, False), (0, True), (1, False), (1, True)]
    assert workload.calls == cycle * harness.MIN_REPEATS
    assert [r.traced for r in rounds] == [t for _, t in workload.calls]


def test_every_round_counts_at_the_reference_host_speed():
    ref = harness.REF_HOST_MS
    rounds = [
        _round(0, {}, ops=2, seconds=3.0, latencies_ms=[1.0, 2.0], host_ms=ref),
        # The same work on a host twice as slow reads the same once scaled.
        _round(0, {}, ops=2, seconds=6.0, latencies_ms=[2.0, 4.0], host_ms=2 * ref),
        _round(1, {}, ops=3, seconds=4.0, latencies_ms=[5.0, 5.0, 9.0], host_ms=ref / 2),
    ]
    seconds, ops, latencies = harness.at_reference_host(rounds)
    assert seconds == 3.0 + 3.0 + 8.0
    assert ops == 7
    assert latencies == [1.0, 2.0, 1.0, 2.0, 10.0, 10.0, 18.0]


def test_a_failed_op_keeps_its_infinite_latency():
    rounds = [_round(0, {}, latencies_ms=[1.0, math.inf], host_ms=harness.REF_HOST_MS / 3)]
    assert harness.at_reference_host(rounds)[2] == [3.0, math.inf]


def test_each_round_is_scaled_by_the_yardstick_read_around_it(monkeypatch):
    readings = iter([10.0, 20.0, 40.0, 30.0, 30.0])
    monkeypatch.setattr(harness, "calibrate", lambda repeats=5, cpus=None: next(readings))
    workload = _Counting()
    workload.trace = False
    rounds = harness._timed_phase(workload, seconds=0.0, trace=False)
    assert [r.host_ms for r in rounds] == [15.0, 30.0, 35.0, 30.0]
