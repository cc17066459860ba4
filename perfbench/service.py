"""``service``: a ``repro serve`` daemon answering a closed loop of requests.

The daemon runs with default flags in its own process.  One client process
(this one) replays fixed request lists, each drawn from one
``service.loadgen.build_mix`` of a seed derived from ``--seed`` — 9
Zipf-weighted graphs, CLANS / HLFET / ETF / LC, 2% malformed, 1% unknown-op
and 2% tight-deadline requests — over
two ``AsyncServiceClient`` connections in a closed loop: each connection
sends its next request only after the previous reply, like the repo's own
callers (``repro submit``, ``ServiceClient``, campaign workers).  One op is
one request answered.  After warm-up the daemon's decoded-graph cache hits
on every request, the opposite of ``suite`` and ``hunt`` where every graph
is new.

Every reply must be byte-equal to the in-process library call on the same
request, computed before timing, and every malformed, unknown-op or
tight-deadline request must get its expected error status.  A failed or
refused request counts as missing any latency limit (``inf`` latency).

With ``--trace 1`` a second daemon runs with ``serve --trace``; traced
rounds go to it and untraced rounds to the plain one.  Its registry is read
as a before/after delta through ``stats {"full": true}`` and its spans from
the trace file it writes on drain.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.core import wire
from repro.schedulers.base import get_scheduler
from repro.service import loadgen
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.protocol import classify_result, ok_response, schedule_result

from . import checks
from .harness import ROOT, Round, Workload, child_env, per_op, sum_by_key
from .layers import SCHEDULERS
from .spans import SpanRecorder

#: Requests per round, and distinct request lists a run cycles through:
#: list ``k`` is drawn from ``build_mix(seed + k * SEED_STEP)``.  Several
#: mixes per run, because a mix's six random graphs set the cost of a
#: request: two seeds' single mixes differed by 20% in throughput.
REQUESTS = 500
INPUTS = 4
SEED_STEP = 7919
CONNECTIONS = 2
_BANNER = re.compile(r"repro service listening on ([0-9.]+):(\d+)")
#: The frames ``service.loadgen`` sends for its malformed and unknown-op kinds.
_MALFORMED = {
    "invalid": ("schedule", {"graph": "not-a-graph"}),
    "unknown_op": ("frobnicate", {}),
}
#: Daemon counters that repeat exactly for a fixed request list.
_EXACT = ("service.requests", "service.errors", "service.deadline_misses", "kernels.cache.misses")


class Daemon:
    """One ``repro serve --port 0`` process."""

    def __init__(self, workdir: Path, name: str, trace: bool) -> None:
        self.log_path = workdir / f"{name}.log"
        self.trace_path = workdir / f"{name}-trace.json" if trace else None
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=self._log
        )
        deadline = time.monotonic() + 60.0
        while True:
            match = _BANNER.search(self.log_path.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start: {self.log_path.read_text()[-2000:]}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drains the daemon (and writes its trace); kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Service(Workload):
    name = "service"
    inputs = INPUTS

    def setup(self) -> None:
        self.requests = self._build_requests()
        self.loop = asyncio.new_event_loop()
        self.daemons: dict[bool, Daemon] = {}
        self.clients: dict[bool, list[AsyncServiceClient]] = {}
        self.server_layers: dict[str, float] = {}
        self.traced_totals = {"ops": 0, "roundtrip_ms": 0.0, "client_wire_ms": 0.0}
        # Warm-up: every distinct request once, so the daemon's graph cache
        # holds every graph before the clock starts.
        self.warmup = self._distinct()
        for traced in (False, True) if self.trace else (False,):
            daemon = Daemon(self.workdir, "traced" if traced else "plain", traced)
            self.daemons[traced] = daemon
            self.clients[traced] = [
                AsyncServiceClient(daemon.address, retries=0) for _ in range(CONNECTIONS)
            ]
            outcomes, _, _ = self.loop.run_until_complete(
                self._replay(self.clients[traced], self.warmup)
            )
            for i, outcome in zip(self.warmup, outcomes):
                problem = checks.reply_problem(self.requests[i]["expected"], self._decode(outcome))
                if problem:
                    raise RuntimeError(f"warm-up request {i}: {problem}")

    # -- requests --------------------------------------------------------
    def _build_requests(self) -> list[dict]:
        """Every input's requests (input ``k`` is the ``k``-th block of
        ``REQUESTS``), drawn by ``service.loadgen``'s own picker, and each
        one's expected outcome, computed in-process before any timing."""
        out = []
        for k in range(INPUTS):
            out += self._mix_requests(self.seed + k * SEED_STEP)
        return out

    def _mix_requests(self, seed: int) -> list[dict]:
        mix, rng = loadgen.build_mix(seed), random.Random(seed)
        graphs = [wire.graph_from_wire(g) for g in mix.graphs]
        memo: dict[tuple, bytes] = {}

        def result(op, g, name):
            if op == "classify":
                return classify_result(graphs[g])
            scheduler = get_scheduler(name)
            scheduled = schedule_result(scheduler.name, graphs[g], scheduler.schedule(graphs[g]))
            if op == "schedule":
                return scheduled
            return {
                "responses": [
                    ok_response(None, classify_result(graphs[g])),
                    ok_response(None, scheduled),
                ]
            }

        out = []
        for _ in range(REQUESTS):
            req = loadgen._pick_request(mix, rng)
            kind = req["kind"]
            if kind in _MALFORMED:
                op, params = _MALFORMED[kind]
                out.append(
                    {"key": (seed, kind), "kind": kind, "op": op, "params": params,
                     "deadline_ms": None, "expected": ("error", "invalid")}
                )
                continue
            op, params = req["op"], req["params"]
            # A batch carries its graph and heuristic in its schedule request.
            target = params["requests"][1]["params"] if op == "batch" else params
            g = mix.graphs.index(target["graph"])
            key = (op, g, target.get("heuristic"))
            if key not in memo:
                memo[key] = wire.dumps(result(*key)).encode()
            tight = kind == "tight_deadline"
            out.append(
                {"key": (seed, *key, tight), "kind": kind, "op": op, "params": params,
                 "deadline_ms": req["deadline_ms"],
                 "expected": ("error", "deadline") if tight else ("ok", memo[key])}
            )
        return out

    def _distinct(self) -> list[int]:
        seen: dict[tuple, int] = {}
        for i, req in enumerate(self.requests):
            seen.setdefault(req["key"], i)
        return sorted(seen.values())

    @staticmethod
    def _decode(outcome) -> tuple[str, object]:
        kind, value = outcome
        return (kind, wire.dumps(value).encode()) if kind == "ok" else (kind, value)

    async def _replay(self, clients, order):
        """Closed loop: each connection sends its next request only after the
        previous reply.  Returns raw outcomes, latencies (ms) and seconds."""
        outcomes: list = [None] * len(order)
        latencies = [math.inf] * len(order)
        todo = iter(range(len(order)))

        async def connection(client):
            for k in todo:
                req = self.requests[order[k]]
                start = perf_counter()
                try:
                    result = await client.call(
                        req["op"], req["params"], deadline_ms=req["deadline_ms"]
                    )
                    outcomes[k] = ("ok", result)
                except ServiceError as exc:
                    outcomes[k] = ("error", exc.status)
                latencies[k] = (perf_counter() - start) * 1e3

        start = perf_counter()
        await asyncio.gather(*(connection(c) for c in clients))
        return outcomes, latencies, perf_counter() - start

    async def _registry(self, traced: bool) -> dict:
        stats = await self.clients[traced][0].call("stats", {"full": True})
        return stats["registry"]

    # -- rounds ------------------------------------------------------------
    def round(self, index: int, recorder: SpanRecorder | None) -> Round:
        traced = recorder is not None
        clients = self.clients[traced]
        before = self.loop.run_until_complete(self._registry(traced))
        order = list(range(index * REQUESTS, (index + 1) * REQUESTS))
        outcomes, latencies, seconds = self.loop.run_until_complete(
            self._replay(clients, order)
        )
        r = Round(index, REQUESTS, seconds, {}, "").capture(recorder)
        after = self.loop.run_until_complete(self._registry(traced))
        replies: dict[str, int] = defaultdict(int)
        digest_parts = []
        for pos, (k, outcome) in enumerate(zip(order, outcomes)):
            got = self._decode(outcome)
            problem = checks.reply_problem(self.requests[k]["expected"], got)
            if problem:
                r.problems.append(f"request {k}: {problem}")
                latencies[pos] = math.inf
            replies[f"replies.{got[0]}.{got[1] if got[0] == 'error' else 'ok'}"] += 1
            digest_parts.append(got[1] if isinstance(got[1], bytes) else str(got[1]).encode())
        r.latencies_ms = latencies
        r.output = checks.sha256(b"\n".join(digest_parts))
        delta = _delta(before, after)
        r.counts = dict(replies)
        r.counts.update({k: delta["counters"].get(k, 0.0) for k in _EXACT})
        for name in SCHEDULERS:
            timer = delta["timers"].get(f"scheduler.{name}")
            if timer:
                r.counts[f"scheduler.{name}.calls"] = timer
        if traced:
            self.traced_totals["ops"] += REQUESTS
            self.traced_totals["roundtrip_ms"] += sum(latencies)
            self.traced_totals["client_wire_ms"] += 1e3 * (
                r.self_s.get("wire.encode", 0.0) + r.self_s.get("wire.decode", 0.0)
            )
        r.extra = {
            "index_cache.hits": delta["counters"].get("service.index_cache.hits", 0.0),
            "index_cache.misses": delta["counters"].get("service.index_cache.misses", 0.0),
            "kernels.hits": delta["counters"].get("kernels.cache.hits", 0.0),
        }
        return r

    def peak_rss_mb(self) -> float:
        return self.daemons[False].peak_rss_mb()

    def layer_extras(self, traced: list[Round], untraced: list[Round]) -> dict[str, float]:
        """Daemon-side layers per request, over every traced round (the
        daemon's trace cannot be split by round), plus cache hit ratios."""
        counts = sum_by_key(r.counts for r in traced)
        extra = sum_by_key(r.extra for r in traced)
        out = {
            f"sched.{name}.calls": per_op(traced, counts.get(f"scheduler.{name}.calls", 0.0))
            for name in SCHEDULERS
        }
        lookups = extra["index_cache.hits"] + extra["index_cache.misses"]
        out["service.cache.hit_ratio"] = extra["index_cache.hits"] / lookups if lookups else 0.0
        lookups = extra["kernels.hits"] + counts["kernels.cache.misses"]
        if lookups:
            out["kernels.cache.hit_ratio"] = extra["kernels.hits"] / lookups
        totals, n = self.traced_totals, self.traced_totals["ops"]
        named_ms = totals["client_wire_ms"]
        for key, total_ms in self.server_layers.items():
            out[key] = total_ms / n
            if key != "service.latency.ms":
                named_ms += total_ms
        transport_ms = (
            totals["roundtrip_ms"]
            - totals["client_wire_ms"]
            - self.server_layers.get("service.latency.ms", 0.0)
        )
        out["service.transport.ms"] = transport_ms / n
        out["coverage"] = named_ms / totals["roundtrip_ms"]
        return out

    def close(self) -> None:
        for traced, clients in getattr(self, "clients", {}).items():
            for client in clients:
                self.loop.run_until_complete(client.close())
        for daemon in getattr(self, "daemons", {}).values():
            daemon.stop()
        traced_daemon = getattr(self, "daemons", {}).get(True)
        if traced_daemon is not None and traced_daemon.trace_path.is_file():
            self.server_layers = _server_layers(
                json.loads(traced_daemon.trace_path.read_text())["traceEvents"],
                skip=sum(1 for i in self.warmup if self.requests[i]["kind"] not in _MALFORMED),
            )
        if hasattr(self, "loop"):
            self.loop.close()


def _delta(before: dict, after: dict) -> dict:
    counters = {
        k: v - before["counters"].get(k, 0.0) for k, v in after["counters"].items()
    }
    timers = {
        k: t["count"] - before["timers"].get(k, {"count": 0})["count"]
        for k, t in after["timers"].items()
    }
    return {"counters": counters, "timers": timers}


_QUEUED_SPANS = ("service.schedule", "service.classify", "service.batch")


def _server_layers(events: list[dict], skip: int) -> dict[str, float]:
    """Daemon-side layer totals (ms) from its trace, after the first ``skip``
    queued requests (the warm-up).

    ``service.queue`` is admission to execution start; ``service.exec`` is
    execution start to reply ready minus the scheduler, compile and batch
    spans nested in it, which are charged to their own layers.
    """
    spans = sorted(
        (e for e in events if e.get("ph") == "X"), key=lambda e: e["ts"]
    )
    requests = [e for e in spans if e["name"] in _QUEUED_SPANS]
    if len(requests) <= skip:
        return {}
    cutoff = requests[skip]["ts"]
    spans = [e for e in spans if e["ts"] >= cutoff]
    children = {"kernels.compile": "kernels.compile.ms", "batch.analyze": "batch.ms"}
    children.update({f"schedule.{n}": f"sched.{n}.ms" for n in SCHEDULERS})
    # Self time by containment on each thread: a span's children are the
    # named spans that start inside it on the same thread.
    out: dict[str, float] = defaultdict(float)
    by_thread: dict[int, list[dict]] = defaultdict(list)
    for e in spans:
        if e["name"] in children:
            by_thread[e["tid"]].append(e)
            out[children[e["name"]]] += e["dur"] / 1e3
    nested = _nested_child_ms(by_thread, children)
    for key, ms in nested.items():
        out[key] -= ms
    queue_ms = sum(e["dur"] for e in spans if e["name"] == "service.queue") / 1e3
    latency_ms = sum(e["dur"] for e in spans if e["name"] in _QUEUED_SPANS) / 1e3
    child_ms = sum(e["dur"] for es in by_thread.values() for e in es) / 1e3 - sum(nested.values())
    out["service.queue.ms"] = queue_ms
    out["service.exec.ms"] = latency_ms - queue_ms - child_ms
    out["service.latency.ms"] = latency_ms
    return dict(out)


def _nested_child_ms(by_thread, children) -> dict[str, float]:
    """Milliseconds each layer's spans spend in nested named spans."""
    nested: dict[str, float] = defaultdict(float)
    for events_on_thread in by_thread.values():
        stack: list[dict] = []
        for e in events_on_thread:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                nested[children[stack[-1]["name"]]] += e["dur"] / 1e3
            stack.append(e)
    return nested
