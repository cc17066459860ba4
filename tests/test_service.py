"""The scheduling service: transport-transparency, back-pressure, drain.

The central contract is byte-identity: a schedule obtained through the
daemon is the same bytes as one computed by a direct library call, for
every registered heuristic.  Everything else — shedding, deadlines,
batching, the index cache, graceful drain — must degrade *visibly*
(typed error responses) rather than corrupt or silently drop work.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core import wire
from repro.core.exceptions import CycleError
from repro.generation.workloads import fork_join, gaussian_elimination
from repro.schedulers.base import SCHEDULER_REGISTRY, get_scheduler
from repro.service import ServerThread, ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.protocol import (
    CAMPAIGN_OPS,
    INLINE_OPS,
    MAX_FRAME_BYTES,
    QUEUED_OPS,
    classify_result,
    schedule_result,
)


@pytest.fixture(scope="module")
def server():
    """One shared daemon for the read-only tests (port 0 = ephemeral)."""
    with ServerThread(port=0, threads=2) as st:
        yield st


@pytest.fixture(scope="module")
def coordinator(tmp_path_factory):
    """One campaign coordinator of a two-unit campaign, for the tests that
    run over every tier."""
    from repro.campaign import CampaignCoordinator, CampaignServer, CampaignSpec

    spec = CampaignSpec(
        graphs_per_cell=2,
        seed=1107,
        n_tasks_range=(8, 10),
        cells=((1, 2, (20, 100)),),
        unit_size=1,
    )
    journal = tmp_path_factory.mktemp("campaign") / "c.jsonl"
    srv = CampaignServer(CampaignCoordinator.create(spec, journal), ("127.0.0.1", 0))
    srv.start()
    yield srv
    srv.stop()


#: The ops each tier serves, and the tier named when another tier is asked.
SERVED = {
    "daemon": QUEUED_OPS | {"health", "stats", "metrics"},
    "router": QUEUED_OPS | INLINE_OPS,
    "coordinator": CAMPAIGN_OPS | {"health", "stats", "metrics"},
}
TIER_NAMES = {
    "daemon": "a scheduling daemon (`repro serve`)",
    "router": "the sharded router (`repro serve --workers N`)",
    "coordinator": "a campaign coordinator (`repro campaign run`)",
}


@pytest.fixture(params=sorted(SERVED))
def any_tier(request):
    """``(tier, address)`` of the daemon, the sharded router and the
    campaign coordinator in turn."""
    if request.param == "coordinator":
        return "coordinator", request.getfixturevalue("coordinator").bound_address
    fixture = {"daemon": "server", "router": "tier"}[request.param]
    return request.param, request.getfixturevalue(fixture).address


@pytest.fixture
def client(server):
    with ServiceClient(server.address) as c:
        yield c


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
    def test_every_heuristic_matches_library(self, client, name):
        graph = fork_join(4)  # 6 tasks: small enough for OPT's exact search
        via_service = client.schedule(graph, name)
        direct = get_scheduler(name).schedule(graph)
        expected = schedule_result(name, graph, direct)
        assert wire.dumps(via_service) == wire.dumps(expected)

    def test_improve_matches_library(self, client):
        from repro.schedulers.improve import LocalSearchImprover

        graph = fork_join(4)
        via_service = client.schedule(graph, "HLFET", improve=True)
        sched = LocalSearchImprover(get_scheduler("HLFET"))
        expected = schedule_result(sched.name, graph, sched.schedule(graph))
        assert wire.dumps(via_service) == wire.dumps(expected)


class TestOps:
    def test_health(self, client):
        h = client.health()
        assert h["status"] == "ok"
        assert h["uptime_s"] >= 0

    def test_classify(self, client, paper_example):
        res = client.classify(paper_example)
        assert res["n_tasks"] == 5
        assert res["n_edges"] == 5
        assert res["serial_time"] == 150.0

    def test_simulate(self, client, paper_example):
        direct = get_scheduler("LC").schedule(paper_example)
        res = client.simulate(paper_example, direct.clusters())
        assert res["makespan"] == direct.makespan

    def test_batch_mixed_results(self, client, paper_example):
        responses = client.batch(
            [
                {"op": "classify", "params": {"graph": paper_example}},
                {"op": "schedule", "params": {"graph": paper_example, "heuristic": "NOPE"}},
                {"op": "schedule", "params": {"graph": paper_example, "heuristic": "HU"}},
            ]
        )
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["code"] == 400
        assert responses[2]["result"]["heuristic"] == "HU"

    def test_batch_rejects_nesting(self, client, paper_example):
        (resp,) = client.batch([{"op": "batch", "params": {"requests": []}}])
        assert not resp["ok"]
        assert resp["error"]["code"] == 400

    def test_stats_counts_requests(self, client, paper_example):
        client.classify(paper_example)
        stats = client.stats()
        assert stats["counters"].get("service.requests", 0) >= 1
        assert stats["queue_capacity"] == 128

    def test_index_cache_hit_on_repeat(self, server, paper_example):
        with ServiceClient(server.address) as c:
            c.schedule(paper_example, "HLFET")
            before = c.stats()["counters"].get("service.index_cache.hits", 0)
            c.schedule(paper_example, "DSC")
            after = c.stats()["counters"].get("service.index_cache.hits", 0)
        assert after > before


class TestErrors:
    def test_unknown_op_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("frobnicate", {})
        assert exc.value.code == 400

    def test_missing_graph_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("schedule", {"heuristic": "HU"})
        assert exc.value.code == 400

    def test_malformed_graph_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("schedule", {"graph": {"tasks": "nonsense"}})
        assert exc.value.code == 400

    def test_bad_json_line_is_400_and_connection_survives(self, server):
        with socket.create_connection(server.address) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.flush()
            resp = json.loads(fh.readline())
            assert resp["ok"] is False
            assert resp["error"]["code"] == 400
            # same connection still serves well-formed frames
            fh.write(b'{"id": 1, "op": "health", "params": {}}\n')
            fh.flush()
            resp = json.loads(fh.readline())
            assert resp["ok"] is True

    def test_unreachable_daemon_is_unavailable(self):
        client = ServiceClient(("127.0.0.1", 1), retries=1, backoff=0.01)
        with pytest.raises(ServiceError) as exc:
            client.health()
        assert exc.value.status == "unavailable"

    def test_client_rejects_oversized_frame_locally(self, server):
        client = ServiceClient(server.address, max_frame_bytes=256)
        with pytest.raises(ServiceError) as exc:
            client.schedule(gaussian_elimination(8))
        assert exc.value.code == 413


class TestBackoffJitter:
    def test_jittered_delay_within_envelope(self):
        import random

        from repro.service.client import backoff_delay

        rng = random.Random(42)
        for attempt in range(1, 8):
            envelope = min(2.0, 0.05 * (2 ** (attempt - 1)))
            for _ in range(50):
                d = backoff_delay(0.05, attempt, rng=rng)
                assert 0.0 <= d <= envelope

    def test_jitter_decorrelates_clients(self):
        import random

        from repro.service.client import backoff_delay

        rng = random.Random(7)
        delays = {backoff_delay(0.05, 3, rng=rng) for _ in range(20)}
        assert len(delays) > 1  # deterministic schedule would collapse to one

    def test_no_jitter_restores_deterministic_schedule(self):
        from repro.service.client import backoff_delay

        assert [backoff_delay(0.05, k, jitter=False) for k in (1, 2, 3)] == [
            0.05,
            0.1,
            0.2,
        ]

    def test_cap_bounds_growth(self):
        from repro.service.client import backoff_delay

        assert backoff_delay(0.05, 30, jitter=False, cap=0.5) == 0.5
        assert backoff_delay(0.05, 30, cap=0.5) <= 0.5

    def test_zero_base_never_sleeps(self):
        from repro.service.client import backoff_delay

        assert backoff_delay(0.0, 5) == 0.0

    def test_backoff_ms_counter_reflects_actual_sleep(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as reg:
            client = ServiceClient(
                ("127.0.0.1", 1), retries=2, backoff=0.01, jitter=True
            )
            with pytest.raises(ServiceError):
                client.health()
            slept_ms = reg.counter("client.backoff_ms")
            # jittered: bounded by the sum of the two envelopes, not equal
            assert 0.0 <= slept_ms <= (0.01 + 0.02) * 1e3
            assert reg.counter("client.retries") == 2


class TestOversizedFrames:
    def test_server_responds_413_then_closes(self):
        with ServerThread(port=0, max_frame_bytes=4096) as st:
            with socket.create_connection(st.address, timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "health", "padding": "' + b"x" * 8192 + b'"}\n')
                fh.flush()
                resp = json.loads(fh.readline())
                assert resp["ok"] is False
                assert resp["error"]["code"] == 413
                # frame sync is lost after an overrun, so the server closes
                assert fh.readline() == b""

    def test_every_tier_answers_one_413_then_closes(self, any_tier):
        _, address = any_tier
        padding = b"x" * (MAX_FRAME_BYTES + 44)
        with socket.create_connection(address, timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(b'{"op": "health", "padding": "' + padding + b'"}\n')
            fh.flush()
            resp = json.loads(fh.readline())
            assert resp["ok"] is False
            assert resp["error"]["code"] == 413
            assert fh.readline() == b""


class TestTierBoundaries:
    def test_unserved_verbs_name_the_tier_that_serves_them(self, any_tier):
        """Every tier answers each known verb it does not serve with a 400
        naming the tier that does; the queued ops name the daemon, which the
        router forwards them to."""
        name, address = any_tier
        known = QUEUED_OPS | INLINE_OPS | CAMPAIGN_OPS
        home = {op: t for t in ("router", "coordinator", "daemon") for op in SERVED[t]}
        unserved = sorted(known - SERVED[name])
        assert unserved
        with ServiceClient(address) as c:
            for op in unserved:
                with pytest.raises(ServiceError) as exc:
                    c.call(op, {"worker": "w0"})
                assert exc.value.code == 400
                assert exc.value.message == f"{op} requires {TIER_NAMES[home[op]]}"


class TestDeadlines:
    def test_queued_past_deadline_is_504(self):
        # one worker: a heavy request (GA, ~200ms) occupies it while a
        # 1 ms-deadline request waits in the queue, guaranteeing the miss
        with ServerThread(port=0, threads=1) as st:
            heavy = gaussian_elimination(12)
            light = fork_join(3)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    slow = asyncio.ensure_future(ac.schedule(heavy, "GA"))
                    await asyncio.sleep(0.05)  # let the heavy one start
                    with pytest.raises(ServiceError) as exc:
                        await ac.schedule(light, deadline_ms=1)
                    assert exc.value.code == 504
                    await slow  # the heavy request itself still completes

            asyncio.run(run())


class TestShedding:
    def test_queue_overflow_sheds_503(self):
        with ServerThread(port=0, threads=1, queue_size=2) as st:
            heavy = gaussian_elimination(12)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    futs = [
                        asyncio.ensure_future(ac.schedule(heavy, "GA"))
                        for _ in range(12)
                    ]
                    done = await asyncio.gather(*futs, return_exceptions=True)
                    statuses = [
                        e.status if isinstance(e, ServiceError) else "ok"
                        for e in done
                    ]
                    assert "shed" in statuses  # queue bound enforced
                    assert "ok" in statuses  # admitted work still completes
                    assert all(s in ("ok", "shed") for s in statuses)

            asyncio.run(run())


class TestBatchingByDigest:
    def test_same_graph_requests_share_one_compile(self):
        # pipeline many same-graph requests; the dispatcher groups them by
        # digest, so the index compiles once for the whole burst
        with ServerThread(port=0, threads=1, batch_max=32) as st:
            graph = fork_join(6, stages=2)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    before = await ac.stats()
                    futs = [
                        asyncio.ensure_future(ac.schedule(graph, "HLFET"))
                        for _ in range(10)
                    ]
                    results = await asyncio.gather(*futs)
                    after = await ac.stats()
                    return results, before, after

            results, before, after = asyncio.run(run())
            assert len({wire.dumps(r) for r in results}) == 1

            def delta(key):
                # the metrics registry is process-global, so compare deltas
                return after["counters"].get(key, 0) - before["counters"].get(key, 0)

            assert delta("service.index_cache.misses") == 1  # one decode+compile
            assert delta("service.index_cache.misses") + delta(
                "service.index_cache.hits"
            ) <= 10

    def test_distinct_graphs_prebatched_in_one_pass(self):
        # pipeline distinct graphs: the burst queues behind the busy
        # single-thread executor and is dispatched in shared rounds, and
        # every response must still be byte-identical to a direct
        # library call
        with ServerThread(port=0, threads=1, batch_max=32) as st:
            graphs = [fork_join(k, stages=2) for k in range(3, 9)]

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    futs = [
                        asyncio.ensure_future(ac.schedule(g, "HLFET"))
                        for g in graphs
                    ]
                    return await asyncio.gather(*futs)

            results = asyncio.run(run())
            for g, got in zip(graphs, results):
                expect = schedule_result(
                    "HLFET", g, get_scheduler("HLFET").schedule(g)
                )
                assert wire.dumps(got) == wire.dumps(expect)


class TestDigestOnce:
    """The daemon hashes a request's graph once: admission's digest goes
    with the queued request, and a batch hashes a repeated graph once."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        real = wire.graph_digest

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(wire, "graph_digest", counting)
        return calls

    def test_schedule_hashes_its_graph_once(self, server, digests, paper_example):
        with ServiceClient(server.address) as c:
            got = c.schedule(paper_example, "MCP")
        expect = schedule_result(
            "MCP", paper_example, get_scheduler("MCP").schedule(paper_example)
        )
        assert wire.dumps(got) == wire.dumps(expect)
        assert len(digests) == 1

    def test_batch_hashes_a_repeated_graph_once(self, server, digests, paper_example):
        with ServiceClient(server.address) as c:
            responses = c.batch(
                [
                    {"op": "classify", "params": {"graph": paper_example}},
                    {"op": "schedule", "params": {"graph": paper_example, "heuristic": "HU"}},
                    {"op": "schedule", "params": {"graph": paper_example, "heuristic": "DSC"}},
                ]
            )
        assert all(r["ok"] for r in responses)
        assert len(digests) == 1
        for r, name in zip(responses[1:], ("HU", "DSC")):
            expect = schedule_result(
                name, paper_example, get_scheduler(name).schedule(paper_example)
            )
            assert wire.dumps(r["result"]) == wire.dumps(expect)

    def test_batch_graphs_equal_only_under_loose_equality(self, server, digests):
        """Task ids 1 and 1.0 compare equal in Python but encode (and
        schedule) differently, so the second graph is hashed on its own."""
        ints = {"tasks": [[1, 2.0], [2, 3.0]], "edges": [[1, 2, 1.0]]}
        floats = {"tasks": [[1.0, 2.0], [2.0, 3.0]], "edges": [[1.0, 2.0, 1.0]]}
        assert ints == floats and wire.dumps(ints) != wire.dumps(floats)
        with ServiceClient(server.address) as c:
            responses = c.batch(
                [
                    {"op": "schedule", "params": {"graph": g, "heuristic": "MH"}}
                    for g in (ints, floats)
                ]
            )
        assert len(digests) == 2
        for r, wg in zip(responses, (ints, floats)):
            g = wire.graph_from_wire(wg)
            expect = schedule_result("MH", g, get_scheduler("MH").schedule(g))
            assert wire.dumps(r["result"]) == wire.dumps(expect)


class TestCompileCounts:
    """The first LC or CLANS request on a graph compiles its index once, and
    a repeat on the graph the daemon still caches compiles none."""

    @pytest.mark.parametrize("heuristic", ["LC", "CLANS"])
    def test_repeat_adds_no_compile(self, heuristic):
        g = gaussian_elimination(7)
        with ServerThread(port=0) as st, ServiceClient(st.address) as c:

            def misses() -> float:
                return c.stats()["counters"].get("kernels.cache.misses", 0.0)

            before = misses()
            first = c.schedule(g, heuristic)
            after_first = misses()
            for _ in range(3):
                assert wire.dumps(c.schedule(g, heuristic)) == wire.dumps(first)
            assert after_first - before == 1
            assert misses() == after_first


def _frame(req_id, op, params) -> bytes:
    """One raw request frame."""
    return json.dumps({"id": req_id, "op": op, "params": params}).encode() + b"\n"


def _exec_counts(client) -> tuple[float, float]:
    """(service.exec.loop, service.exec.worker) from a ``stats`` reply."""
    counters = client.stats()["counters"]
    return (
        counters.get("service.exec.loop", 0.0),
        counters.get("service.exec.worker", 0.0),
    )


def _op_path(client, call):
    """Run ``call`` (one queued request); return the path the daemon ran
    its op on and the reply."""
    loop0, worker0 = _exec_counts(client)
    reply = call()
    loop1, worker1 = _exec_counts(client)
    assert (loop1 - loop0) + (worker1 - worker0) == 1
    return ("loop" if loop1 > loop0 else "worker"), reply


class TestLoopExecution:
    """A schedule or classify op whose last run on the same graph fit in a
    GIL switch interval runs on the event-loop thread, with the same reply;
    everything else takes a worker thread."""

    @pytest.fixture(autouse=True)
    def _generous_budget(self, monkeypatch):
        # A loaded host can stretch any run past 5 ms; these tests are
        # about the rule, not the budget's value, so no run exceeds it.
        monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 1.0)

    def test_budget_is_the_switch_interval(self, monkeypatch):
        monkeypatch.undo()  # the real lookup, not the fixture's
        assert server_module._loop_budget_s() == sys.getswitchinterval()

    @pytest.mark.parametrize("op", ["CLANS", "HLFET", "ETF", "LC", "classify"])
    def test_second_run_goes_on_the_loop(self, op):
        graphs = [fork_join(5), gaussian_elimination(4), fork_join(3, stages=3)]
        with ServerThread(port=0) as st, ServiceClient(st.address) as c:
            for g in graphs:
                if op == "classify":
                    expect = classify_result(g)
                else:
                    expect = schedule_result(op, g, get_scheduler(op).schedule(g))

                def send():
                    return c.classify(g) if op == "classify" else c.schedule(g, op)

                first, reply1 = _op_path(c, send)
                second, reply2 = _op_path(c, send)
                assert (first, second) == ("worker", "loop")
                assert wire.dumps(reply1) == wire.dumps(expect)
                assert wire.dumps(reply2) == wire.dumps(expect)

    def test_health_answers_while_the_worker_is_busy(self):
        """The health reply waits for the loop's turn at the interpreter
        lock, a few switch intervals, not for GA's run.  The bound is a
        share of the GA op's own duration in the same run, so a loaded host,
        which stretches both, does not decide it."""
        with ServerThread(port=0, threads=1) as st:

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    sent = time.perf_counter()
                    slow = asyncio.ensure_future(
                        ac.schedule(gaussian_elimination(24), "GA")
                    )
                    while (await ac.stats())["inflight_groups"] == 0:
                        await asyncio.sleep(0.002)  # until the GA op starts
                    t0 = time.perf_counter()
                    health = await ac.health()
                    waited = time.perf_counter() - t0
                    busy = not slow.done()
                    await slow
                    return health, waited, busy, time.perf_counter() - sent

            health, waited, busy, ga_s = asyncio.run(run())
        assert health["status"] == "ok"
        assert busy  # the reply came while GA still held the worker
        assert waited < ga_s / 4

    def test_op_over_the_budget_stays_on_the_worker(self, monkeypatch):
        g = fork_join(4)
        with ServerThread(port=0) as st, ServiceClient(st.address) as c:

            def send():
                return c.schedule(g, "HLFET")

            monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 0.0)
            for _ in range(3):
                assert _op_path(c, send)[0] == "worker"
            monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 1.0)
            assert _op_path(c, send)[0] == "loop"

    def test_no_cache_means_no_loop(self):
        g = fork_join(4)
        with ServerThread(port=0, index_cache_size=0) as st:
            with ServiceClient(st.address) as c:
                for _ in range(3):
                    assert _op_path(c, lambda: c.classify(g))[0] == "worker"

    @pytest.mark.parametrize(
        "exc, code",
        [(RuntimeError("boom"), 500), (CycleError("boom"), 400)],
        ids=["internal", "repro-error"],
    )
    def test_exception_on_the_loop_matches_the_worker(self, monkeypatch, exc, code):
        g = fork_join(4)
        real = server_module.classify_result

        def failing(graph):
            raise exc

        def send():
            with pytest.raises(ServiceError) as info:
                c.classify(g)
            return info.value.code, info.value.message

        with ServerThread(port=0) as st, ServiceClient(st.address) as c:
            c.classify(g)  # measured on the worker: known fast from now on
            monkeypatch.setattr(server_module, "classify_result", failing)
            on_loop = _op_path(c, send)
            monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 0.0)
            on_worker = _op_path(c, send)
            assert on_loop == ("loop", on_worker[1])
            assert on_worker[0] == "worker"
            assert on_worker[1][0] == code
            monkeypatch.setattr(server_module, "classify_result", real)
            monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 1.0)
            # the daemon keeps serving, on the loop again
            path, reply = _op_path(c, lambda: c.classify(g))
            assert path == "loop"
            assert wire.dumps(reply) == wire.dumps(classify_result(g))

    def test_concurrent_ops_share_the_cache_safely(self):
        """Four worker threads and the loop decode, evict and time graphs
        in a two-entry cache at once: every reply is still the library's,
        and the cache never holds more than its capacity."""
        graphs = [fork_join(k) for k in (3, 4, 5)]
        ops = [(g, name) for g in graphs for name in ("HLFET", "ETF", "classify")]
        expect = {}
        for g, name in ops:
            if name == "classify":
                expect[(id(g), name)] = wire.dumps(classify_result(g))
            else:
                direct = get_scheduler(name).schedule(g)
                expect[(id(g), name)] = wire.dumps(schedule_result(name, g, direct))

        async def run(address):
            from repro.service.client import AsyncServiceClient

            clients = [AsyncServiceClient(address) for _ in range(4)]
            try:
                before = await clients[0].stats()
                for _ in range(8):
                    calls = [
                        (g, name, c.classify(g) if name == "classify" else c.schedule(g, name))
                        for c in clients
                        for g, name in ops
                    ]
                    replies = await asyncio.wait_for(
                        asyncio.gather(*(call for _, _, call in calls)), 30
                    )
                    for (g, name, _), reply in zip(calls, replies):
                        assert wire.dumps(reply) == expect[(id(g), name)]
                return before, await clients[0].stats()
            finally:
                for c in clients:
                    await c.close()

        with ServerThread(port=0, threads=4, index_cache_size=2) as st:
            before, after = asyncio.run(run(st.address))
        assert after["index_cache"]["size"] <= 2
        key = "service.index_cache.evictions"
        assert after["counters"][key] > before["counters"].get(key, 0.0)

    @pytest.mark.parametrize(
        "threads, second_graph",
        [(1, fork_join(4)), (2, fork_join(5))],
        ids=["same-group", "two-groups"],
    )
    def test_frames_are_read_before_the_next_inline_op(
        self, monkeypatch, threads, second_graph
    ):
        """A frame that arrives while an op runs on the loop is read before
        the next inline op starts, whether that op is the same group's next
        (one thread) or another group's, started in the same loop pass (two
        threads)."""
        g = fork_join(4)
        started, release = threading.Event(), threading.Event()
        events: list[str] = []
        real_classify = server_module.classify_result
        real_schedule = server_module.schedule_result
        real_health = server_module.ReproServer._health

        def blocking(graph):
            events.append("op 1")
            started.set()
            assert release.wait(10)
            return real_classify(graph)

        def scheduling(*args):
            events.append("op 2")
            return real_schedule(*args)

        def health(self):
            events.append("health")
            return real_health(self)

        classify = ("classify", {"graph": wire.graph_to_wire(g)})
        schedule = (
            "schedule",
            {"graph": wire.graph_to_wire(second_graph), "heuristic": "HLFET"},
        )
        with ServerThread(port=0, threads=threads) as st:
            with ServiceClient(st.address) as c:
                for _ in range(2):  # both ops known fast
                    c.classify(g)
                    c.schedule(second_graph, "HLFET")
                loop0, _ = _exec_counts(c)
            monkeypatch.setattr(server_module, "classify_result", blocking)
            monkeypatch.setattr(server_module, "schedule_result", scheduling)
            monkeypatch.setattr(server_module.ReproServer, "_health", health)
            with socket.create_connection(st.address) as sock:
                fh = sock.makefile("rwb")
                # one write: both ops are admitted in one pass and
                # dispatched in one round
                sock.sendall(_frame(1, *classify) + _frame(2, *schedule))
                assert started.wait(10)  # op 1 holds the loop thread
                sock.sendall(_frame(3, "health", {}))
                time.sleep(0.05)
                release.set()
                replies = [json.loads(fh.readline()) for _ in range(3)]
            monkeypatch.setattr(server_module, "classify_result", real_classify)
            monkeypatch.setattr(server_module, "schedule_result", real_schedule)
            with ServiceClient(st.address) as c:
                loop1, _ = _exec_counts(c)
        assert events == ["op 1", "health", "op 2"]
        assert sorted(r["id"] for r in replies) == [1, 2, 3]
        assert all(r["ok"] for r in replies)
        assert loop1 - loop0 == 2

    def test_op_is_checked_again_after_waiting_for_the_turn(self, monkeypatch):
        """An op that waited for the loop's turn is checked against the
        budget again once it has the turn: here the budget shrank while
        another group's op held the turn, so the op runs on a worker."""
        g1, g2 = fork_join(4), fork_join(5)
        started, release = threading.Event(), threading.Event()
        real_classify = server_module.classify_result
        real_health = server_module.ReproServer._health

        def blocking(graph):
            started.set()
            assert release.wait(10)
            return real_classify(graph)

        def health(self):
            # runs while op 1 still holds the turn and op 2 waits for it
            monkeypatch.setattr(server_module, "_loop_budget_s", lambda: 0.0)
            return real_health(self)

        classify = ("classify", {"graph": wire.graph_to_wire(g1)})
        schedule = ("schedule", {"graph": wire.graph_to_wire(g2), "heuristic": "HLFET"})
        with ServerThread(port=0, threads=2) as st:
            with ServiceClient(st.address) as c:
                c.classify(g1)
                c.schedule(g2, "HLFET")
                counts0 = _exec_counts(c)
            monkeypatch.setattr(server_module, "classify_result", blocking)
            monkeypatch.setattr(server_module.ReproServer, "_health", health)
            with socket.create_connection(st.address) as sock:
                fh = sock.makefile("rwb")
                sock.sendall(_frame(1, *classify) + _frame(2, *schedule))
                assert started.wait(10)
                sock.sendall(_frame(3, "health", {}))
                time.sleep(0.05)
                release.set()
                replies = {r["id"]: r for r in (json.loads(fh.readline()) for _ in range(3))}
            monkeypatch.setattr(server_module, "classify_result", real_classify)
            with ServiceClient(st.address) as c:
                counts1 = _exec_counts(c)
        assert (counts1[0] - counts0[0], counts1[1] - counts0[1]) == (1, 1)
        expect = schedule_result("HLFET", g2, get_scheduler("HLFET").schedule(g2))
        assert wire.dumps(replies[2]["result"]) == wire.dumps(expect)


class TestDrain:
    def test_zero_dropped_in_flight(self):
        # fire a burst, then drain mid-flight: every request must get a
        # response — completed work or an explicit 503 "draining", never
        # a silently dropped frame
        st = ServerThread(port=0, threads=1).start()
        graph = gaussian_elimination(12)

        async def run():
            from repro.service.client import AsyncServiceClient

            async with AsyncServiceClient(st.address) as ac:
                futs = [
                    asyncio.ensure_future(ac.schedule(graph, "GA"))
                    for _ in range(8)
                ]
                await asyncio.sleep(0.05)
                threading.Thread(target=st.stop, daemon=True).start()
                done = await asyncio.gather(*futs, return_exceptions=True)
                return done

        done = asyncio.run(run())
        st.stop()
        assert len(done) == 8
        for outcome in done:
            if isinstance(outcome, ServiceError):
                assert outcome.status in ("shed", "draining")
            else:
                assert isinstance(outcome, Exception) is False
                assert outcome["heuristic"] == "GA"

    def test_new_connections_refused_after_drain(self):
        with ServerThread(port=0) as st:
            addr = st.address
            with ServiceClient(addr) as c:
                assert c.health()["status"] == "ok"
            st.stop()
            late = ServiceClient(addr, retries=0, backoff=0.01)
            with pytest.raises(ServiceError):
                late.health()

    def test_manifest_written_on_drain(self, tmp_path):
        manifest_path = tmp_path / "serve_manifest.json"
        with ServerThread(port=0, manifest_path=str(manifest_path)) as st:
            with ServiceClient(st.address) as c:
                c.classify(fork_join(3))
        payload = json.loads(manifest_path.read_text())
        assert payload["config"]["command"] == "serve"
        counters = payload["metrics"]["counters"]
        assert counters.get("service.requests", 0) >= 1

    def test_unwritable_manifest_does_not_stop_the_drain(self, tmp_path):
        st = ServerThread(port=0, manifest_path=str(tmp_path / "gone" / "m.json"))
        st.start()
        st.stop()  # raises if the drain never completes


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path, paper_example):
        sock_path = str(tmp_path / "repro.sock")
        with ServerThread(socket_path=sock_path) as st:
            assert st.server.endpoint == f"unix:{sock_path}"
            with ServiceClient(sock_path) as c:
                direct = get_scheduler("DSC").schedule(paper_example)
                res = c.schedule(paper_example, "DSC")
                expected = schedule_result("DSC", paper_example, direct)
                assert wire.dumps(res) == wire.dumps(expected)


# ----------------------------------------------------------------------
# the sharded tier (router + worker processes, consistent hashing)
# ----------------------------------------------------------------------


class TestHashRing:
    """The routing ring's contracts: determinism, balance, and — the reason
    consistent hashing exists — minimal key movement under resize."""

    KEYS = [f"digest-{i:05d}" for i in range(2000)]

    def test_deterministic_across_instances(self):
        from repro.service.ring import HashRing

        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.shard_for(k) for k in self.KEYS] == [
            b.shard_for(k) for k in self.KEYS
        ]

    def test_every_shard_owns_keys(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        owners = {ring.shard_for(k) for k in self.KEYS}
        assert owners == {0, 1, 2, 3}

    def test_roughly_balanced(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        counts = {s: 0 for s in range(4)}
        for k in self.KEYS:
            counts[ring.shard_for(k)] += 1
        # vnodes keep the split even-ish; cache affinity needs stability,
        # not perfection — but no shard may be starved or hogging.
        assert min(counts.values()) > len(self.KEYS) * 0.10
        assert max(counts.values()) < len(self.KEYS) * 0.45

    def test_adding_a_shard_only_moves_keys_to_it(self):
        from repro.service.ring import HashRing

        small = HashRing(range(4))
        grown = HashRing(range(5))
        moved = 0
        for k in self.KEYS:
            before, after = small.shard_for(k), grown.shard_for(k)
            if before != after:
                moved += 1
                # the defining property: a new shard only *takes* keys —
                # keys never shuffle between the surviving shards
                assert after == 4
        # ~1/5 of the keyspace should move, and certainly not most of it
        assert 0 < moved < len(self.KEYS) * 0.40

    def test_removing_a_shard_only_moves_its_keys(self):
        from repro.service.ring import HashRing

        full = HashRing(range(5))
        shrunk = HashRing([0, 1, 2, 3])  # shard 4 removed
        for k in self.KEYS:
            before, after = full.shard_for(k), shrunk.shard_for(k)
            if before != 4:
                assert after == before  # survivors keep their keys

    def test_fallback_is_a_different_shard(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        for k in self.KEYS[:200]:
            owner = ring.shard_for(k)
            assert ring.fallback_for(k, owner) != owner
        single = HashRing([0])
        assert single.fallback_for("anything", 0) == 0


@pytest.fixture(scope="module")
def tier():
    """One shared router + 2 worker processes (spawning workers is the
    expensive part, so the read-only sharded tests share a tier)."""
    from repro.service.shard import ShardedTier

    with ShardedTier(workers=2, worker_config={"threads": 1}) as t:
        yield t


class TestShardedTier:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
    def test_every_heuristic_byte_identical_through_router(self, tier, name):
        graph = fork_join(4)
        with ServiceClient(tier.address) as c:
            via_tier = c.schedule(graph, name)
        direct = get_scheduler(name).schedule(graph)
        expected = schedule_result(name, graph, direct)
        assert wire.dumps(via_tier) == wire.dumps(expected)

    def test_merged_health_lists_every_shard(self, tier):
        with ServiceClient(tier.address) as c:
            h = c.health()
        assert h["status"] == "ok"
        assert h["workers"] == 2
        assert [s["shard"] for s in h["shards"]] == [0, 1]
        assert all(s["status"] == "ok" for s in h["shards"])
        # workers are real separate processes, not threads
        pids = {s["pid"] for s in h["shards"]}
        assert len(pids) == 2 and h["pid"] not in pids

    def test_digest_affinity_pins_a_graph_to_one_shard(self, tier):
        graph = gaussian_elimination(7)
        with ServiceClient(tier.address) as c:
            before = [
                s.get("counters", {}).get("service.requests", 0.0)
                for s in c.stats()["shards"]
            ]
            for _ in range(6):
                c.schedule(graph, "HLFET")
            after = [
                s.get("counters", {}).get("service.requests", 0.0)
                for s in c.stats()["shards"]
            ]
        deltas = [a - b for a, b in zip(after, before)]
        # all six same-digest requests landed on exactly one shard
        assert sorted(deltas) == [0.0, 6.0]

    def test_merged_stats_sum_per_shard_counters(self, tier):
        with ServiceClient(tier.address) as c:
            c.classify(fork_join(3))
            stats = c.stats()
        per_shard = sum(
            s.get("counters", {}).get("service.requests", 0.0)
            for s in stats["shards"]
        )
        assert stats["counters"]["service.requests"] == per_shard > 0
        # the execution-path counters merge like any other
        for key in ("service.exec.loop", "service.exec.worker"):
            assert stats["counters"].get(key, 0.0) == sum(
                s.get("counters", {}).get(key, 0.0) for s in stats["shards"]
            )
        assert stats["counters"]["service.exec.worker"] > 0
        assert stats["queue_capacity"] == 2 * 128  # summed across shards
        lat = stats["latency_ms"]
        assert lat is not None and lat["count"] >= per_shard - 1
        assert stats["router"]["workers"] == 2
        assert stats["router"]["counters"].get("router.requests", 0) > 0

    def test_merged_metrics_exposition(self, tier):
        with ServiceClient(tier.address) as c:
            c.classify(fork_join(3))
            m = c.metrics()
        assert "0.0.4" in m["content_type"]
        assert "repro_service_requests_total" in m["text"]
        assert "repro_router_requests_total" in m["text"]
        assert "repro_service_exec_worker_total" in m["text"]
        assert "repro_service_latency_ms_bucket" in m["text"]

    def test_top_renders_per_shard_rows(self, tier):
        from repro.service.top import render

        with ServiceClient(tier.address) as c:
            stats = c.stats()
        frame = render(stats)
        lines = frame.splitlines()
        assert any(line.startswith("rate") for line in lines)  # aggregate block
        shard_header = [line for line in lines if "shard" in line and "p99ms" in line]
        assert len(shard_header) == 1
        # one row per shard, each starting with its id and a state column
        rows = lines[lines.index(shard_header[0]) + 1 :]
        assert len(rows) == 2
        assert rows[0].split()[:2] == ["0", "ok"]
        assert rows[1].split()[:2] == ["1", "ok"]

    def test_batch_via_router(self, tier, paper_example):
        with ServiceClient(tier.address) as c:
            responses = c.batch(
                [
                    {"op": "classify", "params": {"graph": paper_example}},
                    {
                        "op": "schedule",
                        "params": {"graph": paper_example, "heuristic": "HU"},
                    },
                ]
            )
        assert [r["ok"] for r in responses] == [True, True]
        assert responses[1]["result"]["heuristic"] == "HU"

    def test_router_validation_errors_match_daemon(self, tier, server):
        """Error payloads must be identical through either front door (the
        worker, not the router, owns validation)."""
        for params in ({"heuristic": "HU"}, {"graph": "not-a-graph"}):
            with ServiceClient(tier.address) as c:
                with pytest.raises(ServiceError) as via_tier:
                    c.call("schedule", params)
            with ServiceClient(server.address) as c:
                with pytest.raises(ServiceError) as via_daemon:
                    c.call("schedule", params)
            assert str(via_tier.value) == str(via_daemon.value)

    def test_control_requires_router(self, client):
        # `client` talks to the single-process daemon fixture
        with pytest.raises(ServiceError) as exc:
            client.call("control", {"action": "restart"})
        assert exc.value.code == 400
        assert "router" in exc.value.message

    def test_control_rejects_bad_shard(self, tier):
        with ServiceClient(tier.address) as c:
            with pytest.raises(ServiceError) as exc:
                c.call("control", {"action": "restart", "shard": 99})
            assert exc.value.code == 400
            with pytest.raises(ServiceError) as exc:
                c.call("control", {"action": "frobnicate"})
            assert exc.value.code == 400

    def test_drain_sends_the_reply_of_a_forward_in_flight(self):
        """Stopping the tier while a forward waits on its shard: the drain
        waits for that forward, and its reply comes from the worker, which
        is drained only afterwards."""
        from repro.service.shard import ShardedTier

        graph = fork_join(3)
        expected = schedule_result(
            "HLFET", graph, get_scheduler("HLFET").schedule(graph)
        )
        held, release = threading.Event(), threading.Event()
        replies = []
        t = ShardedTier(workers=1, worker_config={"threads": 1}).start()
        shard = t.endpoint._clients[0]
        call = shard.call

        async def held_call(*args, **kwargs):
            held.set()
            while not release.is_set():
                await asyncio.sleep(0.01)
            return await call(*args, **kwargs)

        shard.call = held_call

        def ask():
            with ServiceClient(t.address, retries=0, timeout=30.0) as c:
                replies.append(c.schedule(graph, "HLFET"))

        asking = threading.Thread(target=ask)
        stopping = threading.Thread(target=t.stop)
        try:
            asking.start()
            assert held.wait(10)
            stopping.start()
            time.sleep(0.5)
            drain_waited = stopping.is_alive()
        finally:
            release.set()
            asking.join(30)
            if stopping.ident is None:
                stopping.start()
            stopping.join(30)
        assert drain_waited  # stop() did not return while the forward ran
        assert not stopping.is_alive()
        assert [wire.dumps(r) for r in replies] == [wire.dumps(expected)]


class TestShardRestart:
    def test_rolling_restart_under_traffic(self):
        """A rolling restart of every shard while requests keep flowing:
        nothing fails — the router retries/reroutes around the drain
        windows and the SDK surfaces that pressure as client counters."""
        from repro.service.client import client_counters
        from repro.service.shard import ShardedTier

        graphs = [fork_join(n) for n in (3, 4, 5, 6)]
        with ShardedTier(workers=2, worker_config={"threads": 1}) as t:
            with ServiceClient(t.address, timeout=60.0) as c:
                expected = {}
                for g in graphs:
                    expected[id(g)] = wire.dumps(c.schedule(g, "HLFET"))
                before = client_counters()
                done = {}

                def restart_all():
                    with ServiceClient(t.address, timeout=120.0) as c2:
                        done["result"] = c2.call("control", {"action": "restart"})

                worker = threading.Thread(target=restart_all)
                worker.start()
                served = 0
                while worker.is_alive():
                    for g in graphs:
                        # must succeed (routed around the restart), and the
                        # payload must be byte-identical to pre-restart
                        assert wire.dumps(c.schedule(g, "HLFET")) == expected[id(g)]
                        served += 1
                worker.join()
                after = client_counters()
                stats = c.stats()
        assert done["result"]["restarted"] == [0, 1]
        assert served > 0
        assert stats["router"]["restarts"] == 2
        # the restart window forced at least one retry or reroute, and the
        # SDK folded it into the client.* pressure counters
        pressure = (
            after.get("shard_retries", 0.0)
            - before.get("shard_retries", 0.0)
            + after.get("reroutes", 0.0)
            - before.get("reroutes", 0.0)
        )
        assert pressure > 0


class TestBindErrors:
    def test_port_in_use_exits_2_single_process(self, server):
        """`repro serve` on an occupied port: exit code 2 and a readable
        message, not an asyncio traceback (the satellite bugfix)."""
        from repro.service.server import ReproServer, run_server

        host, port = server.address
        taken = ReproServer(host=host, port=port)
        assert run_server(taken, handle_signals=False) == 2

    def test_port_in_use_exits_2_router_mode(self, server):
        from repro.service.shard import run_sharded

        host, port = server.address
        rc = run_sharded(
            workers=2,
            host=host,
            port=port,
            worker_config={"threads": 1},
            handle_signals=False,
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_port_in_use_exits_2_campaign(self, server, tmp_path, command):
        """`repro campaign run|resume` on an occupied port: exit 2 and one
        line naming the address and how to continue the journal."""
        host, port = server.address
        journal = tmp_path / "c.jsonl"
        if command == "resume":
            from repro.campaign import CampaignCoordinator, CampaignSpec

            CampaignCoordinator.create(CampaignSpec(graphs_per_cell=1), journal)
            argv = ["campaign", "resume"]
        else:
            argv = ["campaign", "run", "--graphs-per-cell", "1"]
        argv += ["--journal", str(journal), "--host", host, "--port", str(port)]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "cannot listen" in line]
        assert len(lines) == 1
        assert lines[0].startswith(f"repro campaign {command}: cannot listen on {host}:{port}")
        assert lines[0].endswith(f"repro campaign resume --journal {journal}")

    def test_socket_path_in_use_exits_2(self, tmp_path):
        from repro.service.server import ReproServer, run_server

        sock_path = str(tmp_path / "taken.sock")
        with ServerThread(socket_path=sock_path):
            taken = ReproServer(socket_path=sock_path)
            assert run_server(taken, handle_signals=False) == 2
