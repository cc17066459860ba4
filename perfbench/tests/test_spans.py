import sys
import threading
import types

import pytest

from perfbench.spans import Patcher, SpanRecorder


def test_self_time_is_span_minus_children():
    rec = SpanRecorder(keep_spans=True)
    rec.open("sched", start=0.0)
    rec.open("decompose", start=1.0)
    rec.open("simulate", start=2.0)
    rec.close(end=3.0)  # simulate: 1.0, inside decompose
    rec.close(end=5.0)  # decompose: 4.0 long, 3.0 self
    rec.open("simulate", start=6.0)
    rec.close(end=6.5)
    rec.close(end=10.0)  # sched: 10.0 long, 10 - 4 - 0.5 self
    assert rec.self_s == {"simulate": 1.5, "decompose": 3.0, "sched": 5.5}
    assert rec.calls == {"simulate": 2, "decompose": 1, "sched": 1}
    sched, decompose, inner, outer = rec.spans
    assert sched.parent is None and sched.duration == 10.0
    assert decompose.parent == 0 and inner.parent == 1 and outer.parent == 0
    # Self times of all spans add up to the root span's wall time.
    assert sum(s.self_time for s in rec.spans) == sched.duration


def test_same_layer_nested_in_itself_is_not_double_counted():
    rec = SpanRecorder()
    rec.open("simulate", start=0.0)
    rec.open("simulate", start=1.0)
    rec.close(end=2.0)
    rec.close(end=4.0)
    assert rec.self_s["simulate"] == 4.0


def test_threads_keep_separate_stacks():
    rec = SpanRecorder(keep_spans=True)
    barrier = threading.Barrier(2)

    def work(layer):
        rec.open(layer)
        barrier.wait(timeout=5)
        rec.close()

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert all(s.parent is None for s in rec.spans)
    assert rec.calls == {"a": 1, "b": 1}


def test_patcher_replaces_every_reference_and_undoes():
    def encode(x):
        return str(x)

    owner = types.ModuleType("repro._perfbench_test_owner")
    user = types.ModuleType("repro._perfbench_test_user")
    owner.encode = user.encode = encode
    sys.modules[owner.__name__] = owner
    sys.modules[user.__name__] = user
    try:
        rec = SpanRecorder()
        patcher = Patcher()
        wrapped = rec.wrap("wire.encode", encode, measure=lambda a, k, r: len(r))
        assert patcher.wrap_function(encode, wrapped) == 2
        assert user.encode(12345) == "12345"
        assert rec.calls["wire.encode"] == 1 and rec.bytes["wire.encode"] == 5
        patcher.undo()
        assert owner.encode is encode and user.encode is encode
    finally:
        del sys.modules[owner.__name__], sys.modules[user.__name__]


def test_patched_method_records_and_raises_through():
    class Scheduler:
        def _schedule(self, fail):
            if fail:
                raise ValueError("boom")
            return "ok"

    rec = SpanRecorder()
    patcher = Patcher()
    patcher.wrap_method(Scheduler, "_schedule", rec.wrap("sched.X", Scheduler.__dict__["_schedule"]))
    assert Scheduler()._schedule(False) == "ok"
    try:
        Scheduler()._schedule(True)
    except ValueError:
        pass
    assert rec.calls["sched.X"] == 2
    patcher.undo()
    assert "wrapper" not in repr(Scheduler.__dict__["_schedule"])


def test_daemon_self_times_by_containment_after_the_warm_up():
    from perfbench.service import _server_layers

    events = [
        {"ph": "X", "name": "service.schedule", "ts": 0, "dur": 100, "tid": 0},  # warm-up
        {"ph": "i", "name": "service.admit", "ts": 1000, "tid": 0},
        {"ph": "X", "name": "service.queue", "ts": 1000, "dur": 10, "tid": 0},
        {"ph": "X", "name": "schedule.CLANS", "ts": 1020, "dur": 50, "tid": 2},
        {"ph": "X", "name": "kernels.compile", "ts": 1030, "dur": 20, "tid": 2},
        {"ph": "X", "name": "service.schedule", "ts": 1000, "dur": 100, "tid": 0},
    ]
    out = _server_layers(events, skip=1)
    assert out == pytest.approx(
        {
            "sched.CLANS.ms": 0.03,  # 50 us minus the nested 20 us compile
            "kernels.compile.ms": 0.02,
            "service.queue.ms": 0.01,
            "service.latency.ms": 0.1,
            "service.exec.ms": 0.04,  # 100 us - 10 queued - 50 in named layers
        }
    )
