#!/usr/bin/env python
"""End-to-end sharded-tier smoke: a real router + 2 worker processes.

Run by the CI ``shard-smoke`` job (and by hand before deploying)::

    PYTHONPATH=src python benchmarks/smoke_shard.py

Scenarios, each asserting the tier's contract:

1. **Mixed open-loop burst** — ``repro serve --workers 2`` (a real router
   process with two spawned workers) takes 200 open-loop requests with
   invalid payloads, unknown ops and tight deadlines mixed in; every
   request gets a typed response.
2. **Byte identity** — a schedule through the router is byte-identical to
   the direct library call.
3. **Merged stats** — ``stats`` through the router lists both shards and
   the merged ``service.requests`` counter equals the per-shard sum
   (FixedHistogram/counter merge is exact, not sampled).
4. **`repro top --once`** — the dashboard against the router renders the
   aggregate block *and* one row per shard.
5. **Rolling restart under traffic** — ``control {"action": "restart"}``
   recycles every worker while schedule requests keep flowing: all of
   them succeed (the router retries/reroutes around the drain windows)
   and the restart is visible in ``stats.router.restarts``.
6. **SIGTERM drain** — the router gets SIGTERM mid-burst: every in-flight
   request is answered (completed or explicit 503), the process exits 0,
   and the run manifest records router mode.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import wire
from repro.generation.workloads import fork_join, gaussian_elimination
from repro.schedulers.base import get_scheduler
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.loadgen import run_open_loop, summarize
from repro.service.protocol import schedule_result
from smoke_startup import wait_for_line


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def start_tier(sock_path: str, manifest_path: str) -> subprocess.Popen:
    """The router in a session of its own, so that :func:`stop_tier` can
    reach its worker processes too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock_path,
            "--workers",
            "2",
            "--threads",
            "1",
            "--manifest",
            manifest_path,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def wait_for_tier(proc: subprocess.Popen) -> None:
    line = wait_for_line(proc, r"repro service listening on ", 60.0)
    check(line is not None, "sharded tier did not come up")
    check("2 workers" in line, f"banner must name the workers: {line!r}")


def stop_tier(proc: subprocess.Popen) -> None:
    """SIGTERM the router (its drain stops the workers), then SIGKILL
    whatever is left of its process group: workers of a killed router, and
    multiprocessing's resource tracker, outlive it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group has exited
        pass
    proc.wait()


def scenario_mixed_burst(sock_path: str) -> None:
    result = asyncio.run(
        run_open_loop(sock_path, rate=2000.0, n_requests=200, seed=11)
    )
    summary = summarize(result)
    print(
        "mixed burst   : {completed}/{offered} answered, "
        "{throughput_rps:.0f} req/s, p99 {p99:.1f} ms, statuses {statuses}".format(
            completed=summary["completed"],
            offered=summary["offered"],
            throughput_rps=summary["throughput_rps"],
            p99=summary["latency_ms"]["p99"],
            statuses=summary["statuses"],
        )
    )
    check(summary["completed"] == 200, "every request must get a response")
    check(
        set(summary["statuses"]) <= {"ok", "invalid", "deadline", "shed"},
        f"unexpected statuses: {summary['statuses']}",
    )


def scenario_byte_identity(sock_path: str) -> None:
    graph = fork_join(5, stages=2)
    with ServiceClient(sock_path) as client:
        via_tier = client.schedule(graph, "DSC")
    direct = schedule_result("DSC", graph, get_scheduler("DSC").schedule(graph))
    check(
        wire.dumps(via_tier) == wire.dumps(direct),
        "router schedule must be byte-identical to the library's",
    )
    print("byte identity : router DSC result == library DSC result")


def scenario_merged_stats(sock_path: str) -> None:
    with ServiceClient(sock_path) as client:
        health = client.health()
        stats = client.stats()
        metrics = client.metrics()
    check(health["workers"] == 2, f"health must report 2 workers: {health}")
    check(
        [s["shard"] for s in health["shards"]] == [0, 1],
        "health must list both shards",
    )
    shards = stats.get("shards")
    check(isinstance(shards, list) and len(shards) == 2, "stats must list 2 shards")
    per_shard = sum(
        s.get("counters", {}).get("service.requests", 0.0) for s in shards
    )
    merged = stats["counters"].get("service.requests", 0.0)
    check(
        merged == per_shard > 0,
        f"merged requests {merged} != per-shard sum {per_shard}",
    )
    check(
        "repro_router_requests_total" in metrics["text"],
        "metrics must include the router's own counters",
    )
    print(
        f"merged stats  : {merged:.0f} requests == "
        f"{' + '.join(str(s.get('counters', {}).get('service.requests', 0.0)) for s in shards)}"
        " across shards"
    )


def scenario_top(sock_path: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--socket", sock_path, "--once"],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    check(out.returncode == 0, f"repro top --once failed: {out.stderr}")
    lines = out.stdout.splitlines()
    check(any(line.startswith("rate") for line in lines), "top must show aggregate")
    shard_rows = [
        line for line in lines if line.split()[:2] in (["0", "ok"], ["1", "ok"])
    ]
    check(len(shard_rows) == 2, f"top must render one row per shard:\n{out.stdout}")
    print("repro top     : aggregate block + 2 shard rows rendered")


def scenario_rolling_restart(sock_path: str) -> None:
    graphs = [fork_join(n) for n in (3, 4, 5)]
    with ServiceClient(sock_path, timeout=60.0) as client:
        expected = [wire.dumps(client.schedule(g, "HLFET")) for g in graphs]
        done: dict = {}

        def restart_all() -> None:
            with ServiceClient(sock_path, timeout=120.0) as c2:
                done["result"] = c2.call("control", {"action": "restart"})

        worker = threading.Thread(target=restart_all)
        worker.start()
        served = 0
        while worker.is_alive():
            for g, want in zip(graphs, expected):
                got = wire.dumps(client.schedule(g, "HLFET"))
                check(got == want, "response changed across a rolling restart")
                served += 1
        worker.join()
        stats = client.stats()
    check(done["result"]["restarted"] == [0, 1], f"restart result: {done}")
    check(served > 0, "traffic must flow during the rolling restart")
    check(
        stats["router"]["restarts"] == 2,
        f"both shards must restart: {stats['router']}",
    )
    print(
        f"rolling drain : 2 shards recycled in {done['result']['duration_s']:.2f}s "
        f"with {served} requests served through it"
    )


def scenario_sigterm_drain(
    proc: subprocess.Popen, sock_path: str, manifest_path: str
) -> None:
    graphs = [gaussian_elimination(n) for n in range(9, 13)]
    requests = [graphs[i % len(graphs)] for i in range(24)]

    async def run() -> list:
        async with AsyncServiceClient(sock_path) as ac:
            futs = [
                asyncio.ensure_future(ac.schedule(g, "GA")) for g in requests
            ]
            await asyncio.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            return await asyncio.gather(*futs, return_exceptions=True)

    outcomes = asyncio.run(run())
    check(len(outcomes) == 24, "every in-flight request must resolve")
    completed = drained = 0
    for outcome in outcomes:
        if isinstance(outcome, ServiceError):
            check(
                outcome.status in ("draining", "shed", "unavailable"),
                f"unexpected error during drain: {outcome}",
            )
            drained += 1
        elif isinstance(outcome, Exception):
            check(False, f"dropped in-flight request: {outcome!r}")
        else:
            completed += 1
    rc = proc.wait(timeout=60)
    check(rc == 0, f"router must exit 0 after SIGTERM, got {rc}")
    check(Path(manifest_path).exists(), "drain must write the run manifest")
    manifest = json.loads(Path(manifest_path).read_text())
    check(
        manifest["config"].get("mode") == "router",
        "manifest must record router mode",
    )
    check(manifest["config"].get("workers") == 2, "manifest must record workers")
    check(completed >= 1, "in-flight requests must still complete")
    print(
        f"sigterm drain : {completed} completed + {drained} rejected = 24 "
        "answered, exit 0, router manifest written"
    )


def main() -> int:
    # a SIGTERM (a CI timeout, say) unwinds through the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        sock_path = str(Path(tmp) / "router.sock")
        manifest_path = str(Path(tmp) / "router_manifest.json")
        proc = start_tier(sock_path, manifest_path)
        try:
            wait_for_tier(proc)
            scenario_mixed_burst(sock_path)
            scenario_byte_identity(sock_path)
            scenario_merged_stats(sock_path)
            scenario_top(sock_path)
            scenario_rolling_restart(sock_path)
            scenario_sigterm_drain(proc, sock_path, manifest_path)
        finally:
            stop_tier(proc)
    print("shard smoke   : all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
