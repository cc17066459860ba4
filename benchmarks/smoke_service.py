#!/usr/bin/env python
"""End-to-end service smoke: a real daemon process under adversarial load.

Run by the CI ``service-smoke`` job (and by hand before deploying)::

    PYTHONPATH=src python benchmarks/smoke_service.py

Scenarios, each asserting the service's contract:

1. **Mixed open-loop load** — ``repro serve`` (a real subprocess) takes 200
   open-loop requests with invalid payloads, unknown ops and
   tight-deadline requests mixed in.  Every request gets a typed response
   (no drops, no transport errors), correct responses are byte-identical
   to direct library calls, and completed throughput sustains at least
   500 req/s.
2. **Oversized frame** — a frame over the limit gets a 413 response and a
   connection close (line sync is unrecoverable), without disturbing the
   daemon.
3. **Deterministic deadline miss** — a heavy request pins the single
   worker while a 1 ms-deadline request waits behind it; the late request
   comes back 504, the heavy one still completes.
4. **SIGTERM drain** — a burst is in flight when the daemon gets SIGTERM:
   every in-flight request is answered (completed or an explicit 503
   "draining"), the process exits 0, and the run manifest is written.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import wire
from repro.generation.workloads import fork_join, gaussian_elimination
from repro.schedulers.base import get_scheduler
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.loadgen import run_open_loop, summarize
from repro.service.protocol import schedule_result
from smoke_startup import wait_for_line

THROUGHPUT_FLOOR_RPS = 500.0


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def start_daemon(sock_path: str, manifest_path: str, *, threads: int) -> subprocess.Popen:
    """The daemon in a session of its own (see :func:`stop_daemon`)."""
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
            "--threads",
            str(threads),
            "--manifest",
            manifest_path,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def wait_for_daemon(proc: subprocess.Popen) -> None:
    line = wait_for_line(proc, r"serving on ", 20.0)
    check(line is not None, "daemon did not come up")


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM the daemon (it drains), then SIGKILL whatever is left of
    its process group."""
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


def scenario_mixed_load(sock_path: str) -> None:
    result = asyncio.run(
        run_open_loop(sock_path, rate=2000.0, n_requests=200, seed=7)
    )
    summary = summarize(result)
    print(
        "mixed load    : {completed}/{offered} answered, "
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
    check(summary["statuses"].get("invalid", 0) >= 1, "invalid payloads were mixed in")
    check(
        summary["throughput_rps"] >= THROUGHPUT_FLOOR_RPS,
        f"throughput {summary['throughput_rps']:.0f} req/s below "
        f"{THROUGHPUT_FLOOR_RPS:.0f} floor",
    )


def scenario_byte_identity(sock_path: str) -> None:
    graph = fork_join(5, stages=2)
    with ServiceClient(sock_path) as client:
        via_service = client.schedule(graph, "DSC")
    direct = schedule_result("DSC", graph, get_scheduler("DSC").schedule(graph))
    check(
        wire.dumps(via_service) == wire.dumps(direct),
        "service schedule must be byte-identical to the library's",
    )
    print("byte identity : service DSC result == library DSC result")


def scenario_oversized_frame(sock_path: str) -> None:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(sock_path)
        frame = b'{"op":"health","padding":"' + b"x" * (1 << 21) + b'"}\n'
        try:
            sock.sendall(frame)
        except BrokenPipeError:
            pass  # the server 413s and closes as soon as the limit is hit
        reader = sock.makefile("rb")
        resp = json.loads(reader.readline())
        check(resp["ok"] is False, "oversized frame must be an error")
        check(resp["error"]["code"] == 413, "oversized frame must be 413")
        check(reader.readline() == b"", "connection must close after an overrun")
    with ServiceClient(sock_path) as client:
        check(client.health()["status"] == "ok", "daemon must survive the overrun")
    print("oversized     : 413 + close, daemon healthy")


def scenario_deadline_miss(sock_path: str) -> None:
    # two *distinct* heavy graphs: same-digest requests would be grouped
    # onto one worker, leaving the other free for the light request
    heavies = [gaussian_elimination(12), gaussian_elimination(13)]
    light = fork_join(3)

    async def run() -> str:
        async with AsyncServiceClient(sock_path) as ac:
            # two heavy requests pin both workers (~200 ms each); the
            # 1 ms-deadline request behind them is guaranteed to miss
            slow = [
                asyncio.ensure_future(ac.schedule(h, "GA")) for h in heavies
            ]
            await asyncio.sleep(0.05)
            try:
                await ac.schedule(light, deadline_ms=1)
                status = "ok"
            except ServiceError as exc:
                status = exc.status
            await asyncio.gather(*slow)
            return status

    status = asyncio.run(run())
    check(status == "deadline", f"late request must be 504, got {status!r}")
    print("deadline      : queued past 1 ms deadline -> 504; heavy request completed")


def scenario_sigterm_drain(
    proc: subprocess.Popen, sock_path: str, manifest_path: str
) -> None:
    # more requests than one dispatch round holds (batch_max=16): the
    # overflow is still in the admission queue when SIGTERM lands, so the
    # explicit 503 "draining" rejection runs alongside in-flight completion
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
                outcome.status in ("draining", "shed"),
                f"unexpected error during drain: {outcome}",
            )
            drained += 1
        elif isinstance(outcome, Exception):
            check(False, f"dropped in-flight request: {outcome!r}")
        else:
            completed += 1
    rc = proc.wait(timeout=20)
    check(rc == 0, f"daemon must exit 0 after SIGTERM, got {rc}")
    check(Path(manifest_path).exists(), "drain must write the run manifest")
    manifest = json.loads(Path(manifest_path).read_text())
    check(
        manifest["config"]["command"] == "serve",
        "manifest must record the serve config",
    )
    check(drained >= 1, "some queued requests must be rejected as draining")
    check(completed >= 1, "in-flight requests must still complete")
    print(
        f"sigterm drain : {completed} completed + {drained} drained = 24 "
        "answered, exit 0, manifest written"
    )


def main() -> int:
    # a SIGTERM (a CI timeout, say) unwinds through the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        sock_path = str(Path(tmp) / "repro.sock")
        manifest_path = str(Path(tmp) / "serve_manifest.json")
        proc = start_daemon(sock_path, manifest_path, threads=2)
        try:
            wait_for_daemon(proc)
            scenario_mixed_load(sock_path)
            scenario_byte_identity(sock_path)
            scenario_oversized_frame(sock_path)
            scenario_deadline_miss(sock_path)
            scenario_sigterm_drain(proc, sock_path, manifest_path)
        finally:
            stop_daemon(proc)
    print("service smoke : all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
